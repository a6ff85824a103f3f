/// \file optimizer.hpp
/// \brief Circuit optimization passes.
///
/// These produce the "Optimized Circuits" use case of the paper (an original
/// circuit and an equivalent, structurally different optimized version), and
/// `reconstructSwaps` is the pass the DD-based checker uses to turn
/// compiler-emitted CNOT triples back into SWAPs it can absorb into its
/// permutation tracker (Sec. 4.1).
///
/// Adjacency: op B is adjacent to an earlier op A when B is the first op
/// after A that acts on any of A's qubits, B acts on exactly A's qubits, and
/// no barrier lies between them. Any barrier blocks adjacency, whatever
/// qubits it lists, including none.
///
/// Each pass keeps the surviving ops in their original order.
/// `cancelInversePairs`, `mergeRotations` and `reconstructSwaps` apply their
/// rewrite at the first op, in list order, where it matches, again and again
/// until none does. For a circuit of n ops of bounded arity,
/// `removeIdentities`, `fuseSingleQubitGates` and `reconstructSwaps` take
/// O(n) time, and `cancelInversePairs` and `mergeRotations` O(n log n).
#pragma once

#include "ir/circuit.hpp"

#include <cstddef>

namespace veriqc::opt {

/// Remove identity gates, zero-angle rotations and (optionally) barriers.
std::size_t removeIdentities(QuantumCircuit& circuit,
                             bool dropBarriers = false);

/// Cancel adjacent gate pairs G, G^-1, including pairs that become adjacent
/// when the pair between them cancels. Returns the number of gates removed.
std::size_t cancelInversePairs(QuantumCircuit& circuit);

/// Merge adjacent same-axis rotations (RZ/RX/RY/P with identical controls);
/// a merged rotation whose angle is 0 mod 4 pi is removed. Returns the
/// number of merges.
std::size_t mergeRotations(QuantumCircuit& circuit);

/// Fuse maximal runs of uncontrolled single-qubit gates on one wire, with no
/// barrier inside the run, into one U3 gate (tracking the global phase
/// exactly). Returns the number of gates removed.
std::size_t fuseSingleQubitGates(QuantumCircuit& circuit);

/// Replace adjacent CX(a,b) CX(b,a) CX(a,b) triples by a SWAP operation at
/// the first CX's position. Returns the number of SWAPs reconstructed.
std::size_t reconstructSwaps(QuantumCircuit& circuit);

/// The full optimization pipeline, iterated to a fixpoint: identity removal,
/// inverse-pair cancellation, rotation merging and single-qubit fusion.
[[nodiscard]] QuantumCircuit optimize(const QuantumCircuit& circuit);

} // namespace veriqc::opt

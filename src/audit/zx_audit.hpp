/// \file zx_audit.hpp
/// \brief Structural auditors for ZX-diagrams and the simplifier worklist.
///
/// The rewrite engine assumes an undirected multigraph stored as sorted
/// adjacency rows with a matching stored degree per vertex, boundary
/// vertices of degree exactly 1 carrying no phase, phases in PiRational
/// normal form, a worklist whose two sweep bitsets are disjoint, hold no
/// current-sweep vertex at or below the scan position and match their
/// counts, and a change mask whose vertex list names exactly the vertices
/// with a nonzero mask. These auditors re-derive each property.
///
/// Finding codes:
///   zx.adj.symmetry     edge multiplicities differ between the directions
///   zx.adj.order        adjacency row not sorted strictly ascending
///   zx.adj.present      adjacency references an absent vertex
///   zx.adj.empty        adjacency entry with zero total multiplicity
///   zx.degree           stored degree differs from the row's recount
///   zx.boundary.degree  boundary vertex with degree != 1
///   zx.boundary.phase   boundary vertex carrying a nonzero phase
///   zx.boundary.io      inputs/outputs list inconsistent with the diagram
///   zx.phase.form       phase not in PiRational normal form
///   zx.worklist.sweep   worklist sweep bitsets, position or counts disagree
///   zx.worklist.mask    change-mask byte/list inconsistency
#pragma once

#include "audit/finding.hpp"
#include "zx/diagram.hpp"
#include "zx/simplify.hpp"

namespace veriqc::audit {

/// Audits adjacency symmetry and ordering, stored degrees, boundary-vertex
/// invariants and phase normal form of a diagram. `boundariesFinal` should
/// be false while a diagram is under construction or mid-rewrite (boundary
/// degree may then legitimately differ from 1; the check is skipped).
[[nodiscard]] AuditReport auditDiagram(const zx::ZXDiagram& diagram,
                                       bool boundariesFinal = true);

/// Audits the sweep consistency of a simplifier's worklist and
/// the byte/list consistency of its change mask.
[[nodiscard]] AuditReport auditWorklist(const zx::Simplifier& simplifier);

} // namespace veriqc::audit

#include "audit/zx_audit.hpp"

#include <algorithm>
#include <cstdint>
#include <numeric>
#include <string>
#include <unordered_set>

namespace veriqc::audit {

namespace {

std::string vertexLocation(const zx::Vertex v) {
  return "vertex " + std::to_string(v);
}

void auditPhase(const zx::PiRational& phase, const std::string& where,
                AuditReport& report) {
  const auto num = phase.num();
  const auto den = phase.den();
  if (den < 1) {
    report.add(AuditSeverity::Error, "zx.phase.form",
               "denominator " + std::to_string(den) + " < 1", where);
    return;
  }
  if (num == 0 && den != 1) {
    report.add(AuditSeverity::Error, "zx.phase.form",
               "zero phase stored with denominator " + std::to_string(den),
               where);
  }
  if (num != 0 && std::gcd(num < 0 ? -num : num, den) != 1) {
    report.add(AuditSeverity::Error, "zx.phase.form",
               "phase " + std::to_string(num) + "/" + std::to_string(den) +
                   " pi is not fully reduced",
               where);
  }
  if (num <= -den || num > den) {
    report.add(AuditSeverity::Error, "zx.phase.form",
               "phase " + std::to_string(num) + "/" + std::to_string(den) +
                   " pi is outside (-1, 1] pi",
               where);
  }
}

} // namespace

AuditReport auditDiagram(const zx::ZXDiagram& diagram,
                         const bool boundariesFinal) {
  AuditReport report;

  std::unordered_set<zx::Vertex> interface;
  const auto checkInterface = [&](const std::vector<zx::Vertex>& list,
                                  const char* name) {
    for (const auto v : list) {
      if (!diagram.isPresent(v)) {
        report.add(AuditSeverity::Error, "zx.boundary.io",
                   std::string(name) + " references absent vertex",
                   vertexLocation(v));
        continue;
      }
      if (!diagram.isBoundary(v)) {
        report.add(AuditSeverity::Error, "zx.boundary.io",
                   std::string(name) + " references a non-boundary vertex",
                   vertexLocation(v));
      }
      if (!interface.insert(v).second) {
        report.add(AuditSeverity::Error, "zx.boundary.io",
                   "vertex listed twice across inputs/outputs",
                   vertexLocation(v));
      }
    }
  };
  checkInterface(diagram.inputs(), "inputs");
  checkInterface(diagram.outputs(), "outputs");

  for (const auto v : diagram.vertices()) {
    const auto& row = diagram.neighbors(v);
    std::int64_t recounted = 0; // edge ends; self-loops count twice
    for (std::size_t i = 0; i < row.size(); ++i) {
      const auto& entry = row[i];
      recounted += entry.edges.total() * (entry.vertex == v ? 2 : 1);
      if (i > 0 && row[i - 1].vertex >= entry.vertex) {
        report.add(AuditSeverity::Error, "zx.adj.order",
                   "adjacency row not sorted strictly ascending at neighbor " +
                       std::to_string(entry.vertex),
                   vertexLocation(v));
      }
      if (entry.edges.simple < 0 || entry.edges.hadamard < 0 ||
          entry.edges.total() == 0) {
        report.add(AuditSeverity::Error, "zx.adj.empty",
                   "adjacency entry towards " + std::to_string(entry.vertex) +
                       " has multiplicities " +
                       std::to_string(entry.edges.simple) + "/" +
                       std::to_string(entry.edges.hadamard),
                   vertexLocation(v));
      }
      if (!diagram.isPresent(entry.vertex)) {
        report.add(AuditSeverity::Error, "zx.adj.present",
                   "adjacency references absent vertex " +
                       std::to_string(entry.vertex),
                   vertexLocation(v));
        continue;
      }
      if (entry.vertex != v) {
        const auto back = diagram.edge(entry.vertex, v);
        if (back.simple != entry.edges.simple ||
            back.hadamard != entry.edges.hadamard) {
          report.add(AuditSeverity::Error, "zx.adj.symmetry",
                     "edge to " + std::to_string(entry.vertex) + " is " +
                         std::to_string(entry.edges.simple) + "/" +
                         std::to_string(entry.edges.hadamard) +
                         " but the reverse direction is " +
                         std::to_string(back.simple) + "/" +
                         std::to_string(back.hadamard),
                     vertexLocation(v));
        }
      }
    }

    if (static_cast<std::int64_t>(diagram.degree(v)) != recounted) {
      report.add(AuditSeverity::Error, "zx.degree",
                 "stored degree " + std::to_string(diagram.degree(v)) +
                     " but the adjacency row holds " +
                     std::to_string(recounted) + " edge ends",
                 vertexLocation(v));
    }

    auditPhase(diagram.phase(v), vertexLocation(v), report);

    if (diagram.isBoundary(v)) {
      if (!diagram.phase(v).isZero()) {
        report.add(AuditSeverity::Error, "zx.boundary.phase",
                   "boundary vertex carries a nonzero phase",
                   vertexLocation(v));
      }
      if (boundariesFinal && diagram.degree(v) != 1) {
        report.add(AuditSeverity::Error, "zx.boundary.degree",
                   "boundary vertex has degree " +
                       std::to_string(diagram.degree(v)),
                   vertexLocation(v));
      }
      if (interface.find(v) == interface.end()) {
        report.add(AuditSeverity::Error, "zx.boundary.io",
                   "boundary vertex missing from inputs/outputs",
                   vertexLocation(v));
      }
    }
  }

  return report;
}

AuditReport auditWorklist(const zx::Simplifier& simplifier) {
  AuditReport report;
  for (auto& issue : simplifier.worklist().checkInvariant()) {
    report.add(AuditSeverity::Error, "zx.worklist.sweep", std::move(issue),
               "worklist");
  }
  for (auto& issue : simplifier.changeMask().checkInvariant()) {
    report.add(AuditSeverity::Error, "zx.worklist.mask", std::move(issue),
               "change mask");
  }
  return report;
}

} // namespace veriqc::audit

// Rendering of tree decompositions (raw and normalized) as ASCII trees and
// Graphviz DOT — used by examples/paper_figures to reproduce Figures 1, 2,
// 4 — plus the binary serialization of raw decompositions for the engine's
// persistent sessions (docs/SESSION_FORMAT.md).
#ifndef TREEDL_TD_TD_IO_HPP_
#define TREEDL_TD_TD_IO_HPP_

#include <functional>
#include <string>

#include "common/binary_io.hpp"
#include "structure/structure.hpp"
#include "td/normalize.hpp"
#include "td/tree_decomposition.hpp"

namespace treedl {

/// Maps an element id to a display name. Default: "e<id>".
using ElementNamer = std::function<std::string(ElementId)>;

ElementNamer DefaultNamer();
/// Names elements after `structure`'s interned names.
ElementNamer NamerFor(const Structure& structure);

/// ASCII tree, one node per line, children indented, bags in braces.
std::string RenderTree(const TreeDecomposition& td,
                       const ElementNamer& namer = DefaultNamer());
std::string RenderTree(const NormalizedTreeDecomposition& ntd,
                       const ElementNamer& namer = DefaultNamer());
std::string RenderTree(const TupleNormalizedTd& ntd,
                       const ElementNamer& namer = DefaultNamer());

/// Graphviz DOT rendering of a raw decomposition.
std::string ToDot(const TreeDecomposition& td,
                  const ElementNamer& namer = DefaultNamer());

// --- Binary serialization (session persistence) ----------------------------
//
// Nodes are written in pre-order with remapped ids, so deserialization
// replays the public AddNode construction path. The tree shape and bags —
// everything the answers depend on — survive the round trip exactly; node
// ids may be renumbered.

/// Appends the binary encoding of `td` to `writer`.
void SerializeTreeDecomposition(const TreeDecomposition& td,
                                BinaryWriter* writer);

/// Inverse of SerializeTreeDecomposition; corrupted input yields an error
/// Status (every parent reference and length is validated before use).
StatusOr<TreeDecomposition> DeserializeTreeDecomposition(BinaryReader* reader);

}  // namespace treedl

#endif  // TREEDL_TD_TD_IO_HPP_

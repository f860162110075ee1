// Text serialization for structures.
//
// Text format (one item per line; '%' starts a comment):
//   pred(arg1, arg2).     — a ground fact; elements are interned on sight
//   element(name).        — declares an isolated element (no facts needed)
// The signature must be supplied by the caller; facts referencing unknown
// predicates are parse errors.
#ifndef TREEDL_STRUCTURE_STRUCTURE_IO_HPP_
#define TREEDL_STRUCTURE_STRUCTURE_IO_HPP_

#include <string>

#include "common/status.hpp"
#include "structure/structure.hpp"

namespace treedl {

/// Parses `text` into a structure over `signature`.
StatusOr<Structure> ParseStructure(const Signature& signature,
                                   const std::string& text);

/// Renders all facts (and isolated elements) in the parse format above.
std::string FormatStructure(const Structure& structure);

}  // namespace treedl

#endif  // TREEDL_STRUCTURE_STRUCTURE_IO_HPP_

#include "structure/structure_io.hpp"


#include "common/string_util.hpp"

namespace treedl {

namespace {

// Parses "pred(a, b)" into name + args. Returns ParseError on malformed input.
Status ParseAtomText(std::string_view text, std::string* name,
                     std::vector<std::string>* args) {
  size_t open = text.find('(');
  if (open == std::string_view::npos) {
    // Zero-arity atom: bare identifier.
    std::string_view ident = Trim(text);
    if (!IsIdentifier(ident)) {
      return Status::ParseError("malformed atom: " + std::string(text));
    }
    *name = std::string(ident);
    args->clear();
    return Status::OK();
  }
  size_t close = text.rfind(')');
  if (close == std::string_view::npos || close < open) {
    return Status::ParseError("unbalanced parentheses in atom: " +
                              std::string(text));
  }
  std::string_view ident = Trim(text.substr(0, open));
  if (!IsIdentifier(ident)) {
    return Status::ParseError("malformed predicate name: " + std::string(text));
  }
  *name = std::string(ident);
  args->clear();
  std::string_view inner = text.substr(open + 1, close - open - 1);
  if (Trim(inner).empty()) return Status::OK();
  for (const std::string& piece : Split(inner, ',')) {
    std::string_view arg = Trim(piece);
    if (!IsIdentifier(arg)) {
      return Status::ParseError("malformed argument '" + std::string(arg) +
                                "' in atom: " + std::string(text));
    }
    args->emplace_back(arg);
  }
  return Status::OK();
}

}  // namespace

StatusOr<Structure> ParseStructure(const Signature& signature,
                                   const std::string& text) {
  Structure structure(signature);
  int line_no = 0;
  for (const std::string& raw_line : Split(text, '\n')) {
    ++line_no;
    std::string_view line = Trim(raw_line);
    size_t comment = line.find('%');
    if (comment != std::string_view::npos) line = Trim(line.substr(0, comment));
    if (line.empty()) continue;
    if (line.back() != '.') {
      return Status::ParseError("line " + std::to_string(line_no) +
                                ": expected trailing '.'");
    }
    // Several '.'-terminated facts may share a line; identifiers cannot
    // contain '.', so splitting on it is unambiguous.
    for (const std::string& piece : Split(line, '.')) {
      std::string_view stmt = Trim(piece);
      if (stmt.empty()) continue;
      std::string name;
      std::vector<std::string> args;
      Status st = ParseAtomText(stmt, &name, &args);
      if (!st.ok()) {
        return Status::ParseError("line " + std::to_string(line_no) + ": " +
                                  st.message());
      }
      if (name == "element") {
        if (args.size() != 1) {
          return Status::ParseError("line " + std::to_string(line_no) +
                                    ": element/1 expects one argument");
        }
        structure.AddElement(args[0]);
        continue;
      }
      st = structure.AddFactNamed(name, args);
      if (!st.ok()) {
        return Status::ParseError("line " + std::to_string(line_no) + ": " +
                                  st.ToString());
      }
    }
  }
  return structure;
}

std::string FormatStructure(const Structure& structure) {
  std::string out;
  // Declare every element up front, in id order, so that a parse round-trip
  // reproduces the domain *and* the id assignment exactly (facts alone would
  // intern elements in predicate order instead).
  for (ElementId e = 0; e < structure.NumElements(); ++e) {
    out += "element(" + structure.ElementName(e) + ").\n";
  }
  for (const Fact& fact : structure.AllFacts()) {
    out += structure.signature().name(fact.predicate);
    if (!fact.args.empty()) {
      out += "(";
      for (size_t i = 0; i < fact.args.size(); ++i) {
        if (i > 0) out += ", ";
        out += structure.ElementName(fact.args[i]);
      }
      out += ")";
    }
    out += ".\n";
  }
  return out;
}

}  // namespace treedl

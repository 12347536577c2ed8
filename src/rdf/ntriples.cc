#include "rdf/ntriples.h"

#include <algorithm>

#include "common/strings.h"

namespace rdfmr {

namespace {

// Scans one whitespace-delimited N-Triples token starting at `pos`,
// respecting quoted literals. Returns the token and advances pos.
Result<std::string_view> NextToken(std::string_view line, size_t* pos) {
  while (*pos < line.size() && (line[*pos] == ' ' || line[*pos] == '\t')) {
    ++*pos;
  }
  if (*pos >= line.size()) return Status::IoError("unexpected end of line");
  size_t start = *pos;
  if (line[*pos] == '"') {
    ++*pos;
    while (*pos < line.size()) {
      if (line[*pos] == '\\') {
        *pos += 2;
      } else if (line[*pos] == '"') {
        ++*pos;
        break;
      } else {
        ++*pos;
      }
    }
    // Consume any datatype/lang suffix.
    while (*pos < line.size() && line[*pos] != ' ' && line[*pos] != '\t') {
      ++*pos;
    }
  } else {
    while (*pos < line.size() && line[*pos] != ' ' && line[*pos] != '\t') {
      ++*pos;
    }
  }
  return line.substr(start, *pos - start);
}

}  // namespace

Result<Statement> ParseNTriplesLine(const std::string& line) {
  std::string_view body = Trim(line);
  if (body.empty() || body.front() == '#') {
    return Status::NotFound("blank or comment line");
  }
  size_t pos = 0;
  RDFMR_ASSIGN_OR_RETURN(std::string_view stok, NextToken(body, &pos));
  RDFMR_ASSIGN_OR_RETURN(std::string_view ptok, NextToken(body, &pos));
  RDFMR_ASSIGN_OR_RETURN(std::string_view otok, NextToken(body, &pos));
  std::string_view tail = Trim(body.substr(pos));
  if (tail != ".") {
    return Status::IoError("N-Triples line must end with '.': " + line);
  }
  Statement st;
  RDFMR_ASSIGN_OR_RETURN(st.subject, Term::FromNTriples(stok));
  RDFMR_ASSIGN_OR_RETURN(st.predicate, Term::FromNTriples(ptok));
  RDFMR_ASSIGN_OR_RETURN(st.object, Term::FromNTriples(otok));
  if (st.subject.is_literal()) {
    return Status::IoError("subject cannot be a literal: " + line);
  }
  if (!st.predicate.is_iri()) {
    return Status::IoError("predicate must be an IRI: " + line);
  }
  return st;
}

Result<std::vector<Statement>> ParseNTriples(const std::string& text) {
  std::vector<Statement> out;
  size_t start = 0;
  while (start <= text.size()) {
    size_t end = text.find('\n', start);
    if (end == std::string::npos) end = text.size();
    std::string line = text.substr(start, end - start);
    start = end + 1;
    if (Trim(line).empty() || Trim(line).front() == '#') continue;
    RDFMR_ASSIGN_OR_RETURN(Statement st, ParseNTriplesLine(line));
    out.push_back(std::move(st));
    if (end == text.size()) break;
  }
  return out;
}

std::string WriteNTriples(const std::vector<Statement>& statements) {
  std::string out;
  for (const Statement& st : statements) {
    out += st.subject.ToNTriples();
    out += " ";
    out += st.predicate.ToNTriples();
    out += " ";
    out += st.object.ToNTriples();
    out += " .\n";
  }
  return out;
}

IriCompactor::IriCompactor(
    std::vector<std::pair<std::string, std::string>> prefixes)
    : prefixes_(std::move(prefixes)) {
  // Longest prefix first so the most specific namespace wins.
  std::sort(prefixes_.begin(), prefixes_.end(),
            [](const auto& a, const auto& b) {
              return a.first.size() > b.first.size();
            });
}

std::string IriCompactor::Identifier(const Term& term) const {
  switch (term.kind()) {
    case TermKind::kBlank:
      return "_:" + term.value();
    case TermKind::kLiteral:
      return term.value();
    case TermKind::kIri: {
      for (const auto& [prefix, replacement] : prefixes_) {
        if (StartsWith(term.value(), prefix)) {
          return replacement + term.value().substr(prefix.size());
        }
      }
      return term.value();
    }
  }
  return term.value();
}

Triple IriCompactor::ToTriple(const Statement& st) const {
  return Triple(Identifier(st.subject), Identifier(st.predicate),
                Identifier(st.object));
}

Result<std::vector<Triple>> LoadNTriples(const std::string& text,
                                         const IriCompactor& compactor) {
  RDFMR_ASSIGN_OR_RETURN(std::vector<Statement> statements,
                         ParseNTriples(text));
  std::vector<Triple> out;
  out.reserve(statements.size());
  for (const Statement& st : statements) {
    out.push_back(compactor.ToTriple(st));
  }
  return out;
}

}  // namespace rdfmr

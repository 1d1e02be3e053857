// Copyright 2026 The balanced-clique Authors.
#include "src/service/jsonl.h"

#include <cctype>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <utility>
#include <vector>

#include "src/graph/binary_io.h"
#include "src/graph/delta_graph.h"
#include "src/service/graph_store.h"

namespace mbc {

namespace {

const char* ErrorName(StatusCode code) {
  switch (code) {
    case StatusCode::kOk:
      return "ok";
    case StatusCode::kInvalidArgument:
      return "invalid_argument";
    case StatusCode::kIOError:
      return "io_error";
    case StatusCode::kNotFound:
      return "not_found";
    case StatusCode::kCorruption:
      return "corruption";
    case StatusCode::kUnimplemented:
      return "unimplemented";
    case StatusCode::kCancelled:
      return "cancelled";
    case StatusCode::kResourceExhausted:
      return "resource_exhausted";
    case StatusCode::kDeadlineExceeded:
      return "deadline_exceeded";
  }
  return "unknown";
}

void AppendEscaped(const std::string& value, std::string* out) {
  for (const char c : value) {
    switch (c) {
      case '"':
        *out += "\\\"";
        break;
      case '\\':
        *out += "\\\\";
        break;
      case '\n':
        *out += "\\n";
        break;
      case '\r':
        *out += "\\r";
        break;
      case '\t':
        *out += "\\t";
        break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buffer[8];
          std::snprintf(buffer, sizeof(buffer), "\\u%04x",
                        static_cast<unsigned>(c));
          *out += buffer;
        } else {
          *out += c;
        }
    }
  }
}

void AppendStringField(const char* name, const std::string& value, bool* first,
                       std::string* out) {
  *out += *first ? "{\"" : ",\"";
  *first = false;
  *out += name;
  *out += "\":\"";
  AppendEscaped(value, out);
  *out += '"';
}

void AppendRawField(const char* name, const std::string& raw, bool* first,
                    std::string* out) {
  *out += *first ? "{\"" : ",\"";
  *first = false;
  *out += name;
  *out += "\":";
  *out += raw;
}

std::string VerticesJson(const std::vector<VertexId>& vertices) {
  std::string out = "[";
  for (size_t i = 0; i < vertices.size(); ++i) {
    if (i > 0) out += ',';
    out += std::to_string(vertices[i]);
  }
  out += ']';
  return out;
}

/// Scans one JSON scalar starting at `pos`, appending the decoded value.
Status ParseScalar(const std::string& line, size_t* pos, std::string* value) {
  const size_t n = line.size();
  size_t i = *pos;
  if (i >= n) return Status::InvalidArgument("unexpected end of line");
  if (line[i] == '"') {
    for (++i; i < n && line[i] != '"'; ++i) {
      if (line[i] != '\\') {
        *value += line[i];
        continue;
      }
      if (++i >= n) return Status::InvalidArgument("dangling escape");
      switch (line[i]) {
        case '"':
          *value += '"';
          break;
        case '\\':
          *value += '\\';
          break;
        case '/':
          *value += '/';
          break;
        case 'n':
          *value += '\n';
          break;
        case 'r':
          *value += '\r';
          break;
        case 't':
          *value += '\t';
          break;
        case 'b':
          *value += '\b';
          break;
        case 'f':
          *value += '\f';
          break;
        default:
          return Status::InvalidArgument(
              "unsupported escape sequence in string");
      }
    }
    if (i >= n) return Status::InvalidArgument("unterminated string");
    *pos = i + 1;  // past closing quote
    return Status::OK();
  }
  if (line[i] == '{' || line[i] == '[') {
    return Status::InvalidArgument(
        "nested containers are not part of the protocol");
  }
  // Bare literal: number / true / false / null.
  const size_t begin = i;
  while (i < n && line[i] != ',' && line[i] != '}' &&
         !std::isspace(static_cast<unsigned char>(line[i]))) {
    ++i;
  }
  if (i == begin) return Status::InvalidArgument("empty value");
  *value = line.substr(begin, i - begin);
  *pos = i;
  return Status::OK();
}

void SkipSpace(const std::string& line, size_t* pos) {
  while (*pos < line.size() &&
         std::isspace(static_cast<unsigned char>(line[*pos]))) {
    ++*pos;
  }
}

Result<uint64_t> FieldAsUint(const std::string& name,
                             const std::string& value) {
  uint64_t out = 0;
  if (value.empty()) {
    return Status::InvalidArgument("field '" + name + "' is empty");
  }
  for (const char c : value) {
    if (c < '0' || c > '9') {
      return Status::InvalidArgument("field '" + name +
                                     "' must be a non-negative integer, got " +
                                     value);
    }
    out = out * 10 + static_cast<uint64_t>(c - '0');
  }
  return out;
}

Result<double> FieldAsDouble(const std::string& name,
                             const std::string& value) {
  char* end = nullptr;
  const double out = std::strtod(value.c_str(), &end);
  if (end == value.c_str() || *end != '\0' || !(out >= 0)) {
    return Status::InvalidArgument("field '" + name +
                                   "' must be a non-negative number, got " +
                                   value);
  }
  return out;
}

Result<bool> FieldAsBool(const std::string& name, const std::string& value) {
  if (value == "true") return true;
  if (value == "false") return false;
  return Status::InvalidArgument("field '" + name +
                                 "' must be true or false, got " + value);
}

std::string HexFingerprint(uint64_t fingerprint) {
  char buffer[32];
  std::snprintf(buffer, sizeof(buffer), "%016llx",
                static_cast<unsigned long long>(fingerprint));
  return buffer;
}

}  // namespace

std::string JsonlErrorLine(const std::string& id, const Status& status) {
  std::string out;
  bool first = true;
  if (!id.empty()) AppendStringField("id", id, &first, &out);
  AppendRawField("ok", "false", &first, &out);
  AppendStringField("error", ErrorName(status.code()), &first, &out);
  AppendStringField("message", status.message(), &first, &out);
  out += '}';
  return out;
}

bool IsJsonlSkippableLine(const std::string& line) {
  size_t begin = 0;
  SkipSpace(line, &begin);
  return begin == line.size() || line[begin] == '#';
}

Result<JsonlFields> ParseJsonlLine(const std::string& line) {
  JsonlFields fields;
  size_t pos = 0;
  SkipSpace(line, &pos);
  if (pos >= line.size() || line[pos] != '{') {
    return Status::InvalidArgument("request line must be a JSON object");
  }
  ++pos;
  SkipSpace(line, &pos);
  if (pos < line.size() && line[pos] == '}') {
    ++pos;
  } else {
    for (;;) {
      SkipSpace(line, &pos);
      if (pos >= line.size() || line[pos] != '"') {
        return Status::InvalidArgument("expected a quoted field name");
      }
      std::string name;
      MBC_RETURN_NOT_OK(ParseScalar(line, &pos, &name));
      SkipSpace(line, &pos);
      if (pos >= line.size() || line[pos] != ':') {
        return Status::InvalidArgument("expected ':' after field name");
      }
      ++pos;
      SkipSpace(line, &pos);
      std::string value;
      MBC_RETURN_NOT_OK(ParseScalar(line, &pos, &value));
      if (!fields.emplace(name, std::move(value)).second) {
        return Status::InvalidArgument("duplicate field '" + name + "'");
      }
      SkipSpace(line, &pos);
      if (pos >= line.size()) {
        return Status::InvalidArgument("unterminated object");
      }
      if (line[pos] == ',') {
        ++pos;
        continue;
      }
      if (line[pos] == '}') {
        ++pos;
        break;
      }
      return Status::InvalidArgument("expected ',' or '}' in object");
    }
  }
  SkipSpace(line, &pos);
  if (pos != line.size()) {
    return Status::InvalidArgument("trailing characters after object");
  }
  return fields;
}

Result<QueryRequest> QueryRequestFromFields(const JsonlFields& fields) {
  QueryRequest request;
  bool has_tolerance = false;
  bool has_warm_start = false;
  const std::string* algo = nullptr;
  for (const auto& [name, value] : fields) {
    if (name == "op") {
      // Validated by the caller.
    } else if (name == "id") {
      request.id = value;
    } else if (name == "graph") {
      request.graph = value;
    } else if (name == "kind") {
      if (value == "mbc") {
        request.kind = QueryKind::kMbc;
      } else if (value == "pf") {
        request.kind = QueryKind::kPf;
      } else if (value == "gmbc") {
        request.kind = QueryKind::kGmbc;
      } else if (value == "mbc_heu") {
        request.kind = QueryKind::kMbcHeu;
      } else if (value == "mbc_tol") {
        request.kind = QueryKind::kMbcTol;
      } else {
        return Status::InvalidArgument(
            "unknown kind '" + value +
            "' (want mbc, pf, gmbc, mbc_heu or mbc_tol)");
      }
    } else if (name == "tau") {
      MBC_ASSIGN_OR_RETURN(const uint64_t tau, FieldAsUint(name, value));
      if (tau > UINT32_MAX) {
        return Status::InvalidArgument("tau is out of range");
      }
      request.tau = static_cast<uint32_t>(tau);
    } else if (name == "tolerance") {
      MBC_ASSIGN_OR_RETURN(const uint64_t tolerance,
                           FieldAsUint(name, value));
      if (tolerance > UINT32_MAX) {
        return Status::InvalidArgument("tolerance is out of range");
      }
      request.tolerance = static_cast<uint32_t>(tolerance);
      has_tolerance = true;
    } else if (name == "warm_start") {
      MBC_ASSIGN_OR_RETURN(request.warm_start, FieldAsBool(name, value));
      has_warm_start = true;
    } else if (name == "algo") {
      algo = &value;
    } else if (name == "time_limit_seconds") {
      MBC_ASSIGN_OR_RETURN(request.time_limit_seconds,
                           FieldAsDouble(name, value));
    } else if (name == "memory_limit_mb") {
      MBC_ASSIGN_OR_RETURN(request.memory_limit_mb, FieldAsUint(name, value));
    } else if (name == "deadline_ms") {
      MBC_ASSIGN_OR_RETURN(request.deadline_ms, FieldAsDouble(name, value));
    } else if (name == "no_cache") {
      MBC_ASSIGN_OR_RETURN(request.no_cache, FieldAsBool(name, value));
    } else if (name == "parallel_threads") {
      MBC_ASSIGN_OR_RETURN(const uint64_t threads, FieldAsUint(name, value));
      // A sanity bound, not a grant: the service clamps to its own
      // intra-query budget anyway, so huge values are a client bug.
      if (threads > 256) {
        return Status::InvalidArgument(
            "parallel_threads is out of range (max 256)");
      }
      request.parallel_threads = static_cast<uint32_t>(threads);
    } else if (name == "witnesses") {
      MBC_ASSIGN_OR_RETURN(request.witnesses, FieldAsBool(name, value));
    } else {
      return Status::InvalidArgument("unknown query field '" + name + "'");
    }
  }
  if (request.graph.empty()) {
    return Status::InvalidArgument("query needs a 'graph' field");
  }
  // Field order inside a JSON object is arbitrary, so kind-dependent
  // validation has to wait until every field has been read.
  if (has_tolerance && request.kind != QueryKind::kMbcTol) {
    return Status::InvalidArgument(
        "'tolerance' is only valid for kind mbc_tol");
  }
  if (has_warm_start && request.kind != QueryKind::kMbc) {
    return Status::InvalidArgument(
        "'warm_start' is only valid for kind mbc");
  }
  // Each kind has one engine; "algo" may only name it.
  if (algo != nullptr && *algo != QueryKindEngine(request.kind)) {
    return Status::InvalidArgument(
        "algo '" + *algo + "' is not served for kind " +
        QueryKindName(request.kind) + ", whose one engine is '" +
        QueryKindEngine(request.kind) +
        "'; the paper baselines run through mbc_cli");
  }
  return request;
}

std::string SerializeResponse(const QueryRequest& request,
                              const QueryResponse& response,
                              const JsonlOptions& options) {
  if (!response.status.ok()) {
    return JsonlErrorLine(response.id, response.status);
  }
  std::string out;
  bool first = true;
  if (!response.id.empty()) {
    AppendStringField("id", response.id, &first, &out);
  }
  AppendRawField("ok", "true", &first, &out);
  AppendStringField("kind", QueryKindName(request.kind), &first, &out);
  switch (request.kind) {
    case QueryKind::kMbc: {
      AppendRawField("tau", std::to_string(request.tau), &first, &out);
      AppendRawField("size", std::to_string(response.result.clique.size()),
                     &first, &out);
      AppendRawField("left", VerticesJson(response.result.clique.left), &first,
                     &out);
      AppendRawField("right", VerticesJson(response.result.clique.right),
                     &first, &out);
      break;
    }
    case QueryKind::kMbcHeu: {
      AppendRawField("tau", std::to_string(request.tau), &first, &out);
      AppendRawField("size", std::to_string(response.result.clique.size()),
                     &first, &out);
      AppendRawField("left", VerticesJson(response.result.clique.left), &first,
                     &out);
      AppendRawField("right", VerticesJson(response.result.clique.right),
                     &first, &out);
      // A heuristic answer is a lower bound by construction; say so in
      // every frame so clients never mistake it for the optimum.
      AppendRawField("exact", "false", &first, &out);
      break;
    }
    case QueryKind::kMbcTol: {
      AppendRawField("tau", std::to_string(request.tau), &first, &out);
      AppendRawField("tolerance", std::to_string(request.tolerance), &first,
                     &out);
      AppendRawField("frustrated", std::to_string(response.result.frustrated),
                     &first, &out);
      AppendRawField("size", std::to_string(response.result.clique.size()),
                     &first, &out);
      AppendRawField("left", VerticesJson(response.result.clique.left), &first,
                     &out);
      AppendRawField("right", VerticesJson(response.result.clique.right),
                     &first, &out);
      break;
    }
    case QueryKind::kPf: {
      AppendRawField("beta", std::to_string(response.result.beta), &first,
                     &out);
      break;
    }
    case QueryKind::kGmbc: {
      AppendRawField("beta", std::to_string(response.result.beta), &first,
                     &out);
      std::string sizes = "[";
      for (size_t i = 0; i < response.result.gmbc_sizes.size(); ++i) {
        if (i > 0) sizes += ',';
        sizes += std::to_string(response.result.gmbc_sizes[i]);
      }
      sizes += ']';
      AppendRawField("sizes", sizes, &first, &out);
      // Witness cliques only on request: they can dwarf the size list,
      // and their absence keeps pre-witness goldens byte-identical.
      if (request.witnesses) {
        std::string cliques = "[";
        for (size_t i = 0; i < response.result.gmbc_cliques.size(); ++i) {
          const BalancedClique& clique = response.result.gmbc_cliques[i];
          if (i > 0) cliques += ',';
          cliques += "{\"left\":" + VerticesJson(clique.left) +
                     ",\"right\":" + VerticesJson(clique.right) + "}";
        }
        cliques += ']';
        AppendRawField("cliques", cliques, &first, &out);
      }
      break;
    }
  }
  // Absent on exact answers, so existing goldens are unchanged; present in
  // both modes because "this is a lower bound, not the answer" is semantics,
  // not timing.
  if (response.degraded) AppendRawField("degraded", "true", &first, &out);
  if (!options.deterministic) {
    AppendRawField("cached", response.cached ? "true" : "false", &first, &out);
    char seconds[32];
    std::snprintf(seconds, sizeof(seconds), "%.6f", response.seconds);
    AppendRawField("seconds", seconds, &first, &out);
  }
  out += '}';
  return out;
}

std::string JsonlField(const JsonlFields& fields, const char* name) {
  const auto it = fields.find(name);
  return it == fields.end() ? std::string() : it->second;
}

std::string RunJsonlControlOp(QueryService& service, const std::string& op,
                              const JsonlFields& fields,
                              const JsonlOptions& options) {
  const std::string id = JsonlField(fields, "id");
  if (op == "load") {
    const std::string name = JsonlField(fields, "name");
    const std::string path = JsonlField(fields, "path");
    if (name.empty() || path.empty()) {
      return JsonlErrorLine(
          id, Status::InvalidArgument("load needs 'name' and 'path' fields"));
    }
    const Status status = service.store().LoadFromFile(name, path);
    if (!status.ok()) return JsonlErrorLine(id, status);
    Result<GraphStore::SnapshotPtr> snapshot = service.store().Find(name);
    if (!snapshot.ok()) return JsonlErrorLine(id, snapshot.status());
    std::string out;
    bool first = true;
    if (!id.empty()) AppendStringField("id", id, &first, &out);
    AppendRawField("ok", "true", &first, &out);
    AppendStringField("name", name, &first, &out);
    AppendStringField("fingerprint",
                      HexFingerprint(snapshot.value()->fingerprint()), &first,
                      &out);
    AppendRawField("vertices",
                   std::to_string(snapshot.value()->graph().NumVertices()),
                   &first, &out);
    AppendRawField("edges",
                   std::to_string(snapshot.value()->graph().NumEdges()),
                   &first, &out);
    out += '}';
    return out;
  }
  if (op == "evict") {
    const std::string name = JsonlField(fields, "name");
    if (name.empty()) {
      return JsonlErrorLine(
          id, Status::InvalidArgument("evict needs a 'name' field"));
    }
    const Status status = service.store().Evict(name);
    if (!status.ok()) return JsonlErrorLine(id, status);
    std::string out;
    bool first = true;
    if (!id.empty()) AppendStringField("id", id, &first, &out);
    AppendRawField("ok", "true", &first, &out);
    AppendStringField("name", name, &first, &out);
    out += '}';
    return out;
  }
  if (op == "list") {
    std::string out;
    bool first = true;
    if (!id.empty()) AppendStringField("id", id, &first, &out);
    AppendRawField("ok", "true", &first, &out);
    std::string graphs = "[";
    bool first_graph = true;
    for (const GraphStore::ListEntry& entry : service.store().List()) {
      if (!first_graph) graphs += ',';
      first_graph = false;
      graphs += "{\"name\":\"";
      AppendEscaped(entry.name, &graphs);
      graphs += "\",\"fingerprint\":\"" + HexFingerprint(entry.fingerprint) +
                "\",\"vertices\":" + std::to_string(entry.num_vertices) +
                ",\"edges\":" + std::to_string(entry.num_edges) +
                ",\"mapped\":" + (entry.mapped ? "true" : "false") + "}";
    }
    graphs += ']';
    AppendRawField("graphs", graphs, &first, &out);
    out += '}';
    return out;
  }
  if (op == "add_edges" || op == "remove_edges") {
    const std::string name = JsonlField(fields, "name");
    const std::string edges = JsonlField(fields, "edges");
    if (name.empty() || edges.empty()) {
      return JsonlErrorLine(
          id, Status::InvalidArgument(op +
                                      " needs 'name' and 'edges' fields"));
    }
    MutationBatch batch;
    const bool adding = op == "add_edges";
    if (const Status status = ParseMutationEdges(edges, adding, &batch);
        !status.ok()) {
      return JsonlErrorLine(id, status);
    }
    Result<QueryService::MutationResponse> applied =
        service.MutateGraph(name, batch);
    if (!applied.ok()) return JsonlErrorLine(id, applied.status());
    const QueryService::MutationResponse& m = applied.value();
    std::string out;
    bool first = true;
    if (!id.empty()) AppendStringField("id", id, &first, &out);
    AppendRawField("ok", "true", &first, &out);
    AppendStringField("name", name, &first, &out);
    AppendRawField("version", std::to_string(m.version), &first, &out);
    AppendStringField("fingerprint", HexFingerprint(m.fingerprint), &first,
                      &out);
    AppendRawField("added", std::to_string(m.added), &first, &out);
    AppendRawField("removed", std::to_string(m.removed), &first, &out);
    AppendRawField("flipped", std::to_string(m.flipped), &first, &out);
    AppendRawField("noops", std::to_string(m.noops), &first, &out);
    AppendRawField("core_affected", std::to_string(m.core_affected), &first,
                   &out);
    AppendRawField("core_visited", std::to_string(m.core_visited), &first,
                   &out);
    AppendRawField("delta_bytes", std::to_string(m.delta_bytes), &first, &out);
    AppendRawField("compacted", m.compacted ? "true" : "false", &first, &out);
    AppendRawField("cache_invalidated", std::to_string(m.cache_invalidated),
                   &first, &out);
    AppendRawField("cache_rekeyed", std::to_string(m.cache_rekeyed), &first,
                   &out);
    out += '}';
    return out;
  }
  if (op == "snapshot") {
    const std::string name = JsonlField(fields, "name");
    if (name.empty()) {
      return JsonlErrorLine(
          id, Status::InvalidArgument("snapshot needs a 'name' field"));
    }
    Result<QueryService::SnapshotResponse> compacted =
        service.SnapshotGraph(name);
    if (!compacted.ok()) return JsonlErrorLine(id, compacted.status());
    const std::string path = JsonlField(fields, "path");
    if (!path.empty()) {
      // Persist the (now content-addressed) head: deltas themselves are
      // in-memory only, so the snapshot op is the durability point.
      Result<GraphStore::SnapshotPtr> head = service.store().Find(name);
      if (!head.ok()) return JsonlErrorLine(id, head.status());
      if (const Status status =
              WriteSignedGraphBinary(head.value()->graph(), path);
          !status.ok()) {
        return JsonlErrorLine(id, status);
      }
    }
    const QueryService::SnapshotResponse& s = compacted.value();
    std::string out;
    bool first = true;
    if (!id.empty()) AppendStringField("id", id, &first, &out);
    AppendRawField("ok", "true", &first, &out);
    AppendStringField("name", name, &first, &out);
    AppendRawField("version", std::to_string(s.version), &first, &out);
    AppendStringField("fingerprint", HexFingerprint(s.fingerprint), &first,
                      &out);
    AppendRawField("compacted", s.compacted ? "true" : "false", &first, &out);
    AppendRawField("cache_rekeyed", std::to_string(s.cache_rekeyed), &first,
                   &out);
    if (!path.empty()) AppendStringField("path", path, &first, &out);
    out += '}';
    return out;
  }
  if (op == "stats") {
    std::string out;
    bool first = true;
    if (!id.empty()) AppendStringField("id", id, &first, &out);
    AppendRawField("ok", "true", &first, &out);
    AppendRawField("stats", service.StatsJson(options.deterministic), &first,
                   &out);
    out += '}';
    return out;
  }
  return JsonlErrorLine(id, Status::InvalidArgument("unknown op '" + op + "'"));
}

}  // namespace mbc

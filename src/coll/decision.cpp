#include "coll/decision.hpp"

#include <algorithm>
#include <cctype>
#include <fstream>
#include <sstream>

#include "util/check.hpp"

namespace srm::coll {

const char* algo_name(Algo a) {
  switch (a) {
    case Algo::staged: return "staged";
    case Algo::direct: return "direct";
    case Algo::rd: return "rd";
    case Algo::pipeline: return "pipeline";
    case Algo::ring: return "ring";
    case Algo::rhalving: return "rhalving";
    case Algo::scatter_ag: return "scatter_ag";
  }
  return "?";
}

bool algo_from_name(std::string_view s, Algo& out) {
  for (int i = 0; i < kAlgoCount; ++i) {
    auto a = static_cast<Algo>(i);
    if (s == algo_name(a)) {
      out = a;
      return true;
    }
  }
  return false;
}

namespace {

bool coll_from_name(std::string_view s, CollKind& out) {
  for (CollKind k : kAllOps) {
    if (s == coll_name(k)) {
      out = k;
      return true;
    }
  }
  return false;
}

}  // namespace

void DecisionTable::set(CollKind op, std::size_t min_bytes, Decision d) {
  auto& rows = ops_[static_cast<std::size_t>(op)];
  auto it = std::lower_bound(
      rows.begin(), rows.end(), min_bytes,
      [](const Row& r, std::size_t b) { return r.min_bytes < b; });
  if (it != rows.end() && it->min_bytes == min_bytes) {
    it->d = d;
  } else {
    rows.insert(it, Row{min_bytes, d});
  }
}

Decision DecisionTable::decide(CollKind op, std::size_t bytes) const {
  const auto& rows = ops_[static_cast<std::size_t>(op)];
  Decision d;
  for (const Row& r : rows) {
    if (r.min_bytes > bytes) break;
    d = r.d;
  }
  return d;
}

bool DecisionTable::empty() const {
  for (const auto& rows : ops_) {
    if (!rows.empty()) return false;
  }
  return true;
}

// ---- JSON ------------------------------------------------------------------
//
// The format is a strict subset of JSON (objects, arrays, strings, unsigned
// integers, booleans); the writer below and the tuner are the only producers,
// so the hand-rolled reader stays honest by round-tripping in the tests.

std::string DecisionTable::to_json() const {
  std::ostringstream os;
  os << "{\n  \"version\": " << version << ",\n  \"profile\": \"" << profile
     << "\",\n  \"ops\": {";
  bool first_op = true;
  for (CollKind k : kAllOps) {
    const auto& rows = ops_[static_cast<std::size_t>(k)];
    if (rows.empty()) continue;
    os << (first_op ? "" : ",") << "\n    \"" << coll_name(k) << "\": [";
    first_op = false;
    for (std::size_t i = 0; i < rows.size(); ++i) {
      const Row& r = rows[i];
      os << (i == 0 ? "" : ",") << "\n      {\"min_bytes\": " << r.min_bytes
         << ", \"algo\": \"" << algo_name(r.d.algo)
         << "\", \"mapped\": " << (r.d.mapped ? "true" : "false")
         << ", \"internode\": \"" << tree_kind_name(r.d.internode) << "\"}";
    }
    os << "\n    ]";
  }
  os << "\n  }\n}\n";
  return os.str();
}

namespace {

/// Minimal recursive-descent scanner for the subset the writer emits.
struct Scan {
  std::string_view s;
  std::size_t i = 0;

  [[noreturn]] void die(const std::string& why) const {
    std::ostringstream os;
    os << "DecisionTable JSON at byte " << i << ": " << why;
    throw util::CheckError(os.str());
  }
  void ws() {
    while (i < s.size() &&
           std::isspace(static_cast<unsigned char>(s[i])) != 0) {
      ++i;
    }
  }
  bool peek(char c) {
    ws();
    return i < s.size() && s[i] == c;
  }
  void expect(char c) {
    ws();
    if (i >= s.size() || s[i] != c) die(std::string("expected '") + c + "'");
    ++i;
  }
  std::string string() {
    expect('"');
    std::string out;
    while (i < s.size() && s[i] != '"') out.push_back(s[i++]);
    if (i >= s.size()) die("unterminated string");
    ++i;
    return out;
  }
  std::uint64_t number() {
    ws();
    std::size_t start = i;
    while (i < s.size() && std::isdigit(static_cast<unsigned char>(s[i])) != 0)
      ++i;
    if (i == start) die("expected a number");
    std::uint64_t v = 0;
    for (std::size_t j = start; j < i; ++j) {
      v = v * 10 + static_cast<std::uint64_t>(s[j] - '0');
    }
    return v;
  }
  bool boolean() {
    ws();
    if (s.substr(i, 4) == "true") {
      i += 4;
      return true;
    }
    if (s.substr(i, 5) == "false") {
      i += 5;
      return false;
    }
    die("expected true/false");
  }
};

}  // namespace

DecisionTable DecisionTable::from_json(std::string_view text) {
  DecisionTable t;
  Scan sc{text};
  sc.expect('{');
  bool first = true;
  while (!sc.peek('}')) {
    if (!first) sc.expect(',');
    first = false;
    std::string key = sc.string();
    sc.expect(':');
    if (key == "version") {
      t.version = static_cast<int>(sc.number());
    } else if (key == "profile") {
      t.profile = sc.string();
    } else if (key == "ops") {
      sc.expect('{');
      bool first_op = true;
      while (!sc.peek('}')) {
        if (!first_op) sc.expect(',');
        first_op = false;
        std::string op_name = sc.string();
        CollKind op;
        if (!coll_from_name(op_name, op)) sc.die("unknown op " + op_name);
        sc.expect(':');
        sc.expect('[');
        bool first_row = true;
        bool have_prev = false;
        std::size_t prev_min = 0;
        while (!sc.peek(']')) {
          if (!first_row) sc.expect(',');
          first_row = false;
          sc.expect('{');
          std::size_t min_bytes = 0;
          Decision d;
          bool first_field = true;
          while (!sc.peek('}')) {
            if (!first_field) sc.expect(',');
            first_field = false;
            std::string f = sc.string();
            sc.expect(':');
            if (f == "min_bytes") {
              min_bytes = sc.number();
            } else if (f == "algo") {
              std::string a = sc.string();
              if (!algo_from_name(a, d.algo)) sc.die("unknown algo " + a);
            } else if (f == "mapped") {
              d.mapped = sc.boolean();
            } else if (f == "internode") {
              std::string k = sc.string();
              if (!tree_kind_from_name(k, d.internode))
                sc.die("unknown tree kind " + k);
            } else {
              sc.die("unknown row field " + f);
            }
          }
          sc.expect('}');
          // set() silently replaces a colliding row, which is the right
          // API for programmatic edits but hides authoring mistakes in a
          // loaded file: a duplicate or out-of-order min_bytes means one
          // row silently wins. Reject those with a structured error.
          if (have_prev && min_bytes <= prev_min) {
            std::ostringstream os;
            os << "rows for \"" << op_name
               << "\" must be strictly ascending in min_bytes: " << min_bytes
               << " follows " << prev_min;
            throw ValidationError(op, -1, "min_bytes", os.str());
          }
          have_prev = true;
          prev_min = min_bytes;
          t.set(op, min_bytes, d);
        }
        sc.expect(']');
      }
      sc.expect('}');
    } else {
      sc.die("unknown key " + key);
    }
  }
  sc.expect('}');
  SRM_CHECK_MSG(t.version == 1,
                "DecisionTable version " << t.version << " not supported");
  return t;
}

void DecisionTable::save(const std::string& path) const {
  std::ofstream f(path);
  SRM_CHECK_MSG(f.good(), "cannot write decision table to " << path);
  f << to_json();
}

DecisionTable DecisionTable::load(const std::string& path) {
  std::ifstream f(path);
  SRM_CHECK_MSG(f.good(), "cannot read decision table from " << path);
  std::ostringstream os;
  os << f.rdbuf();
  return from_json(os.str());
}

// ---- builtins --------------------------------------------------------------

DecisionTable DecisionTable::ibm_sp() {
  // The paper's constants, verbatim (§2.4 + the single-copy crossover):
  //   bcast: staged shared-buffer protocol up to 64 KB, direct beyond;
  //   allreduce: recursive doubling up to 16 KB, pipelined reduce+bcast
  //     beyond; everything else staged;
  //   mapped column: single-copy from 16 KB up (only effective when
  //     SrmConfig::single_copy opts in — the staged path is the default).
  // With a default SrmConfig this table reproduces pre-table dispatch
  // byte-for-byte.
  DecisionTable t;
  t.profile = "ibm_sp";
  auto bin = TreeKind::binomial;
  t.set(CollKind::bcast, 0, {Algo::staged, false, bin});
  t.set(CollKind::bcast, 16 * 1024, {Algo::staged, true, bin});
  t.set(CollKind::bcast, 64 * 1024 + 1, {Algo::direct, true, bin});
  t.set(CollKind::reduce, 0, {Algo::staged, false, bin});
  t.set(CollKind::reduce, 16 * 1024, {Algo::staged, true, bin});
  // The allreduce mapped column is advisory only: rd never maps and the
  // composite algorithms consult their sub-operations' rows instead.
  t.set(CollKind::allreduce, 0, {Algo::rd, false, bin});
  t.set(CollKind::allreduce, 16 * 1024 + 1, {Algo::pipeline, false, bin});
  t.set(CollKind::barrier, 0, {Algo::staged, false, bin});
  t.set(CollKind::scatter, 0, {Algo::staged, false, bin});
  t.set(CollKind::scatter, 16 * 1024, {Algo::staged, true, bin});
  t.set(CollKind::gather, 0, {Algo::staged, false, bin});
  t.set(CollKind::gather, 16 * 1024, {Algo::staged, true, bin});
  t.set(CollKind::allgather, 0, {Algo::staged, false, bin});
  t.set(CollKind::allgather, 16 * 1024, {Algo::staged, true, bin});
  t.set(CollKind::reduce_scatter, 0, {Algo::staged, false, bin});
  t.set(CollKind::reduce_scatter, 16 * 1024, {Algo::staged, true, bin});
  return t;
}

DecisionTable DecisionTable::modern_smp() {
  // Tuner output for the hierarchical 2-socket profile, 8 nodes x 16 tasks
  // (bench/tune.cpp; regenerate with `tune --profile modern_smp`).
  // Differences from the paper's constants that the sweep measured:
  //   * mapped bcast loses at every size (the fan-out cascade serializes on
  //     cross-socket windows; flat staged pulls overlap on the bus —
  //     DESIGN.md §14), so the mapped column stays false for bcast;
  //   * the bcast staircase grows fine structure: direct already wins the
  //     16-32 KB band (the staged pipeline-chunk regime), staged recovers
  //     at exactly 64 KB (one full shared buffer, no chunking), a
  //     scatter+allgather window covers 128-256 KB where splitting the
  //     root link wins, then direct's user-buffer pipeline takes over;
  //   * mapped reduce crosses over at ~2 KB, far below the paper's 16 KB;
  //   * recursive halving takes allreduce from ~512 KB; ring and bine only
  //     win off power-of-two node counts (9 nodes: ring from 128 KB, bine
  //     trees in the latency band — see abl_tuner), so the 8-node builtin
  //     keeps rhalving and binomial;
  //   * mapped scatter wins only the sub-2 KB band (one window export vs
  //     per-chunk staging; above it the copies dominate either way).
  DecisionTable t;
  t.profile = "modern_smp";
  auto bin = TreeKind::binomial;
  t.set(CollKind::bcast, 0, {Algo::staged, false, bin});
  t.set(CollKind::bcast, 16 * 1024, {Algo::direct, false, bin});
  t.set(CollKind::bcast, 64 * 1024, {Algo::staged, false, bin});
  t.set(CollKind::bcast, 128 * 1024, {Algo::scatter_ag, false, bin});
  t.set(CollKind::bcast, 512 * 1024, {Algo::direct, false, bin});
  t.set(CollKind::reduce, 0, {Algo::staged, false, bin});
  t.set(CollKind::reduce, 2 * 1024, {Algo::staged, true, bin});
  t.set(CollKind::allreduce, 0, {Algo::rd, false, bin});
  t.set(CollKind::allreduce, 32 * 1024, {Algo::pipeline, false, bin});
  t.set(CollKind::allreduce, 512 * 1024, {Algo::rhalving, false, bin});
  t.set(CollKind::barrier, 0, {Algo::staged, false, bin});
  t.set(CollKind::scatter, 0, {Algo::staged, false, bin});
  t.set(CollKind::scatter, 32, {Algo::staged, true, bin});
  t.set(CollKind::scatter, 2 * 1024, {Algo::staged, false, bin});
  t.set(CollKind::gather, 0, {Algo::staged, false, bin});
  t.set(CollKind::allgather, 0, {Algo::staged, false, bin});
  t.set(CollKind::allgather, 16 * 1024, {Algo::staged, true, bin});
  t.set(CollKind::reduce_scatter, 0, {Algo::staged, false, bin});
  t.set(CollKind::reduce_scatter, 16 * 1024, {Algo::staged, true, bin});
  return t;
}

const DecisionTable* DecisionTable::builtin(std::string_view profile) {
  static const DecisionTable sp = ibm_sp();
  static const DecisionTable smp = modern_smp();
  if (profile == "ibm_sp") return &sp;
  if (profile == "modern_smp") return &smp;
  return nullptr;
}

}  // namespace srm::coll

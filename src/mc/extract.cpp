#include "mc/extract.hpp"

#include <map>
#include <set>
#include <utility>

#include "util/format.hpp"

namespace srm::mc {
namespace {

using chk::TraceEvent;
using Kind = chk::TraceEvent::Kind;

/// Interns sync objects / regions by pointer identity, deduplicating the
/// human labels (two SharedFlags may share a label; the pointer is the
/// truth).
struct PtrNames {
  std::map<const void*, int> ids;
  std::set<std::string> used;

  int get(Program& p, const void* key, const std::string& label,
          const char* fallback, bool is_buf) {
    auto it = ids.find(key);
    if (it != ids.end()) return it->second;
    std::string base =
        label.empty() ? fallback + std::to_string(ids.size()) : label;
    std::string n = base;
    for (int k = 2; !used.insert(n).second; ++k) {
      n = base + "#" + std::to_string(k);
    }
    int id = is_buf ? p.buf(n) : p.var(n, 0);
    ids.emplace(key, id);
    return id;
  }
};

}  // namespace

Program skeleton_from_trace(const std::vector<TraceEvent>& trace, int nactors,
                            const std::string& name) {
  Program p;
  p.name = name;
  auto actor_thread = [&p](int a) {
    return p.thread(util::cat("a", std::to_string(a)));
  };
  for (int a = 0; a < nactors; ++a) actor_thread(a);
  auto nic_thread = [&p](int origin) {
    return p.thread(util::cat("nic", std::to_string(origin)));
  };

  // Pass 1: which threads consume each message. A put's counter bump and
  // deposit run on the origin's NIC thread; a mini-MPI recv runs on the
  // receiving rank. Each (message, consumer) pair gets its own channel so
  // every consumer independently inherits the fork's clock.
  std::map<std::uint64_t, std::vector<int>> consumers;
  for (const TraceEvent& ev : trace) {
    int tid = -1;
    if (ev.kind == Kind::join || (ev.remote && (ev.kind == Kind::read ||
                                                ev.kind == Kind::write))) {
      tid = nic_thread(ev.actor);
    } else if (ev.kind == Kind::acquire_msg) {
      tid = actor_thread(ev.actor);
    }
    if (tid < 0 || ev.msg == 0) continue;
    std::vector<int>& cs = consumers[ev.msg];
    bool seen = false;
    for (int c : cs) seen = seen || c == tid;
    if (!seen) cs.push_back(tid);
  }
  auto chan_of = [&p](std::uint64_t msg, int tid) {
    return p.chan(util::cat("m", std::to_string(msg), ":",
                            p.threads[static_cast<std::size_t>(tid)].name));
  };

  // Pass 2: emit ops in trace order; await thresholds snapshot the release
  // count at the acquire's position.
  PtrNames vars, bufs;
  std::map<int, std::uint64_t> bumps;  // var id -> releases seen so far
  std::set<std::pair<std::uint64_t, int>> recv_done;
  auto ensure_recv = [&](std::uint64_t msg, int tid) {
    if (msg == 0) return;
    if (recv_done.emplace(msg, tid).second) p.recv(tid, chan_of(msg, tid));
  };
  for (const TraceEvent& ev : trace) {
    switch (ev.kind) {
      case Kind::release: {
        int v = vars.get(p, ev.obj, ev.label, "sv", false);
        p.add(actor_thread(ev.actor), v, 1);
        ++bumps[v];
        break;
      }
      case Kind::acquire: {
        int v = vars.get(p, ev.obj, ev.label, "sv", false);
        p.await_ge(actor_thread(ev.actor), v, bumps[v]);
        break;
      }
      case Kind::fork: {
        int t = actor_thread(ev.actor);
        for (int c : consumers[ev.msg]) p.send(t, chan_of(ev.msg, c));
        break;
      }
      case Kind::join: {
        int t = nic_thread(ev.actor);
        ensure_recv(ev.msg, t);
        int v = vars.get(p, ev.obj, ev.label, "sv", false);
        p.add(t, v, 1);
        ++bumps[v];
        break;
      }
      case Kind::acquire_msg:
        ensure_recv(ev.msg, actor_thread(ev.actor));
        break;
      case Kind::read:
      case Kind::write: {
        int t = ev.remote ? nic_thread(ev.actor) : actor_thread(ev.actor);
        if (ev.remote) ensure_recv(ev.msg, t);
        int b = bufs.get(p, ev.obj, ev.label, "rg", true);
        if (ev.kind == Kind::write) {
          p.write(t, b, ev.lo, ev.hi);
        } else {
          p.read(t, b, ev.lo, ev.hi);
        }
        break;
      }
    }
  }
  p.validate();
  return p;
}

Options extracted_options() {
  Options o;
  o.check_deadlock = false;
  return o;
}

}  // namespace srm::mc

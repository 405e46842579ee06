#include "coll/tree.hpp"

#include <algorithm>
#include <cstdint>
#include <deque>
#include <functional>
#include <map>
#include <utility>

namespace srm::coll {

const char* tree_kind_name(TreeKind k) {
  switch (k) {
    case TreeKind::binomial: return "binomial";
    case TreeKind::binary: return "binary";
    case TreeKind::fibonacci: return "fibonacci";
    case TreeKind::flat: return "flat";
    case TreeKind::bine: return "bine";
  }
  return "?";
}

bool tree_kind_from_name(std::string_view s, TreeKind& out) {
  for (TreeKind k : {TreeKind::binomial, TreeKind::binary, TreeKind::fibonacci,
                     TreeKind::flat, TreeKind::bine}) {
    if (s == tree_kind_name(k)) {
      out = k;
      return true;
    }
  }
  return false;
}

int Tree::height() const {
  std::vector<int> depth(static_cast<std::size_t>(n), 0);
  int h = 0;
  // parents always precede children in BFS order; compute by repeated sweeps
  // from the root (trees are shallow, simple DFS is fine).
  std::function<void(int, int)> dfs = [&](int v, int d) {
    depth[static_cast<std::size_t>(v)] = d;
    h = std::max(h, d);
    for (int c : children[static_cast<std::size_t>(v)]) dfs(c, d + 1);
  };
  dfs(root, 0);
  return h;
}

int Tree::subtree_size(int v) const {
  int s = 1;
  for (int c : children[static_cast<std::size_t>(v)]) s += subtree_size(c);
  return s;
}

void Tree::validate() const {
  SRM_CHECK(n >= 1);
  SRM_CHECK(root >= 0 && root < n);
  SRM_CHECK(static_cast<int>(parent.size()) == n);
  SRM_CHECK(static_cast<int>(children.size()) == n);
  SRM_CHECK(parent[static_cast<std::size_t>(root)] == -1);
  int visited = 0;
  std::vector<char> seen(static_cast<std::size_t>(n), 0);
  std::function<void(int)> dfs = [&](int v) {
    SRM_CHECK_MSG(!seen[static_cast<std::size_t>(v)], "cycle at vertex " << v);
    seen[static_cast<std::size_t>(v)] = 1;
    ++visited;
    for (int c : children[static_cast<std::size_t>(v)]) {
      SRM_CHECK(c >= 0 && c < n);
      SRM_CHECK_MSG(parent[static_cast<std::size_t>(c)] == v,
                    "child " << c << " disagrees about parent " << v);
      dfs(c);
    }
  };
  dfs(root);
  SRM_CHECK_MSG(visited == n, "tree is not spanning: " << visited << "/" << n);
}

namespace {

Tree make_empty(int n, int root) {
  SRM_CHECK(n >= 1);
  SRM_CHECK(root >= 0 && root < n);
  Tree t;
  t.n = n;
  t.root = root;
  t.parent.assign(static_cast<std::size_t>(n), -1);
  t.children.resize(static_cast<std::size_t>(n));
  return t;
}

int to_rank(int vrank, int root, int n) { return (vrank + root) % n; }

void link(Tree& t, int parent, int child) {
  t.parent[static_cast<std::size_t>(child)] = parent;
  t.children[static_cast<std::size_t>(parent)].push_back(child);
}

}  // namespace

Tree binomial_tree(int n, int root) {
  Tree t = make_empty(n, root);
  // Distance power-of-two construction over virtual ranks: vrank v attaches
  // to v minus its lowest set bit. Children are produced in ascending-mask
  // (small subtree first) order.
  for (int v = 0; v < n; ++v) {
    for (int mask = 1; mask < n; mask <<= 1) {
      if (v & mask) break;
      int child = v | mask;
      if (child < n) link(t, to_rank(v, root, n), to_rank(child, root, n));
    }
  }
  return t;
}

Tree binary_tree(int n, int root) {
  Tree t = make_empty(n, root);
  // Complete binary tree over virtual ranks: children of v are 2v+1, 2v+2.
  for (int v = 0; v < n; ++v) {
    for (int c : {2 * v + 1, 2 * v + 2}) {
      if (c < n) link(t, to_rank(v, root, n), to_rank(c, root, n));
    }
  }
  return t;
}

Tree fibonacci_tree(int n, int root) {
  Tree t = make_empty(n, root);
  // Postal-model construction (Bar-Noy & Kipnis, lambda = 2): a vertex
  // informed at step s can deliver its next message at step s+2 and every
  // step thereafter; the root starts ready. Each step, every eligible sender
  // adopts the next uninformed virtual rank, so the informed count follows
  // the Fibonacci recurrence f(t) = f(t-1) + f(t-2): 1, 2, 3, 5, 8, 13, ...
  int next = 1;
  std::deque<std::pair<int, int>> informed;  // (vrank, step informed)
  informed.emplace_back(0, -1);              // root was ready before step 0
  int step = 0;
  while (next < n) {
    ++step;
    std::size_t count = informed.size();
    for (std::size_t i = 0; i < count && next < n; ++i) {
      auto [v, at] = informed[i];
      if (at > step - 2) continue;  // still in its recovery step
      int child = next++;
      link(t, to_rank(v, root, n), to_rank(child, root, n));
      informed.emplace_back(child, step);
    }
  }
  return t;
}

Tree flat_tree(int n, int root) {
  Tree t = make_empty(n, root);
  for (int v = 1; v < n; ++v) link(t, root, to_rank(v, root, n));
  return t;
}

Tree bine_tree(int n, int root) {
  Tree t = make_empty(n, root);
  if (n == 1) return t;
  // Dissemination over virtual ranks: at step k every informed vertex u
  // reaches for u + rho_k (u even) or u - rho_k (u odd), with
  // rho_k = (1 - (-2)^(k+1)) / 3 — the negabinary distance sequence
  // 1, -1, 3, -5, 11, ... whose partial sums tile the ring. On a power of
  // two this informs everyone in exactly log2(n) steps; elsewhere peers can
  // collide, so the walk is bounded and stragglers hang flat off the root.
  std::vector<char> informed(static_cast<std::size_t>(n), 0);
  informed[0] = 1;
  std::vector<int> frontier{0};  // informed vertices, discovery order
  int covered = 1;
  std::int64_t pow = -2;  // (-2)^(k+1)
  int max_steps = 2;
  while ((1 << (max_steps - 2)) < n) ++max_steps;  // 2 * ceil(log2 n) slack
  max_steps *= 2;
  for (int k = 0; k < max_steps && covered < n; ++k) {
    std::int64_t rho = (1 - pow) / 3;
    pow *= -2;
    std::size_t count = frontier.size();
    for (std::size_t i = 0; i < count && covered < n; ++i) {
      int u = frontier[i];
      std::int64_t d = (u % 2 == 0) ? rho : -rho;
      int peer = static_cast<int>(((u + d) % n + n) % n);
      if (informed[static_cast<std::size_t>(peer)]) continue;
      informed[static_cast<std::size_t>(peer)] = 1;
      ++covered;
      link(t, to_rank(u, root, n), to_rank(peer, root, n));
      frontier.push_back(peer);
    }
  }
  for (int v = 1; v < n; ++v) {
    if (!informed[static_cast<std::size_t>(v)]) {
      link(t, root, to_rank(v, root, n));
    }
  }
  // Child lists come out of the walk in discovery order — largest subtree
  // first. Every consumer of Tree assumes the binomial convention (smallest
  // subtree first, so reversed fan-out sends the critical subtree earliest);
  // re-sort to match it.
  for (auto& kids : t.children) {
    std::stable_sort(kids.begin(), kids.end(), [&t](int a, int b) {
      return t.subtree_size(a) < t.subtree_size(b);
    });
  }
  t.validate();
  return t;
}

Tree build_tree(TreeKind kind, int n, int root) {
  switch (kind) {
    case TreeKind::binomial: return binomial_tree(n, root);
    case TreeKind::binary: return binary_tree(n, root);
    case TreeKind::fibonacci: return fibonacci_tree(n, root);
    case TreeKind::flat: return flat_tree(n, root);
    case TreeKind::bine: return bine_tree(n, root);
  }
  SRM_CHECK(false);
  return {};
}

Tree topo_tree(const machine::TopologyParams& tp, int n, int root,
               bool binomial) {
  Tree t = make_empty(n, root);
  // Leaders: the root leads every domain it belongs to; any other domain is
  // led by its lowest member. Maps are keyed by domain id (dense from 0).
  auto leader_of = [&](auto domain_of) {
    std::vector<int> lead;
    for (int v = 0; v < n; ++v) {
      auto d = static_cast<std::size_t>(domain_of(v));
      if (d >= lead.size()) lead.resize(d + 1, -1);
      if (lead[d] == -1) lead[d] = v;
    }
    lead[static_cast<std::size_t>(domain_of(root))] = root;
    return lead;
  };
  std::vector<int> sock_lead =
      leader_of([&](int v) { return tp.socket_of(v); });
  std::vector<int> l3_lead = leader_of([&](int v) { return tp.l3_of(v); });
  // An L3 slice containing its socket's leader is led by that leader (one
  // descent path per vertex: root -> socket leader -> L3 leader -> core).
  for (std::size_t g = 0; g < l3_lead.size(); ++g) {
    int sl = sock_lead[static_cast<std::size_t>(tp.socket_of(l3_lead[g]))];
    if (tp.l3_of(sl) == static_cast<int>(g)) l3_lead[g] = sl;
  }

  // Group every non-root vertex under its leader (same descent rules either
  // way); the flag only changes how members attach within one group. Each
  // member carries its stratum — plain core, L3 leader, socket leader — so
  // the binomial layout can order the group without mixing strata in a way
  // that would cross a domain boundary twice.
  std::map<int, std::vector<std::pair<int, int>>> group;  // lead -> (stratum, v)
  for (int v = 0; v < n; ++v) {
    if (v == root) continue;
    int sl = sock_lead[static_cast<std::size_t>(tp.socket_of(v))];
    int gl = l3_lead[static_cast<std::size_t>(tp.l3_of(v))];
    if (v == sl) {
      group[root].emplace_back(2, v);
    } else if (v == gl) {
      group[sl].emplace_back(1, v);
    } else {
      group[gl].emplace_back(0, v);
    }
  }
  for (auto& [lead, members] : group) {
    if (!binomial) {
      for (auto [s, v] : members) link(t, lead, v);
      continue;
    }
    // In-group order [lead, members...]; index i hangs off index i with its
    // lowest set bit cleared — the classic binomial layout. Same-domain
    // cores come first (rank order rotated around the leader, so a
    // single-domain group reproduces binomial_tree(n, root) exactly), then
    // L3 leaders, then socket leaders: a core's binomial parent is always
    // an earlier core of its own slice (or the lead), and only a domain's
    // leader ever has a parent outside that domain — every boundary is
    // still crossed by exactly one edge.
    const int l = lead;  // structured binding can't be captured
    std::sort(members.begin(), members.end(),
              [&](const std::pair<int, int>& a, const std::pair<int, int>& b) {
                if (a.first != b.first) return a.first < b.first;
                return (a.second - l + n) % n < (b.second - l + n) % n;
              });
    std::vector<int> ord;
    ord.reserve(members.size() + 1);
    ord.push_back(lead);
    for (auto [s, v] : members) ord.push_back(v);
    for (std::size_t i = 1; i < ord.size(); ++i) {
      link(t, ord[i & (i - 1)], ord[i]);
    }
  }
  t.validate();
  return t;
}

const Tree& TreeMemo::get(int shape, int n, int root) {
  auto key = std::make_tuple(shape, n, root);
  auto it = trees_.find(key);
  if (it == trees_.end()) {
    Tree t = shape < kTopoFlat
                 ? build_tree(static_cast<TreeKind>(shape), n, root)
                 : topo_tree(*tp_, n, root, shape == kTopoBinomial);
    it = trees_.emplace(key, std::move(t)).first;
  }
  return it->second;
}

Embedding TreeMemo::embed(int root, TreeKind internode_kind) {
  SRM_CHECK(root >= 0 && root < topo_->nranks());
  return Embedding{
      root, tree(internode_kind, topo_->nodes(), topo_->node_of(root)), topo_};
}

}  // namespace srm::coll

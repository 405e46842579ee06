// Communication-tree builders, their shared memo, and the SMP cluster
// embedding (paper §2.1).
//
// Binomial ("distance power-of-two"), binary, Fibonacci, flat and Bine trees
// over an arbitrary vertex count and root. The Embedding assembles the
// paper's Figure-1 structure: a tree over *nodes* connecting one leader task
// per node, plus an intra-node tree over the local tasks of each node. If
// every node carries p tasks, the embedding adds no height:
// log(n*p) >= log(n) + log(p).
#pragma once

#include <cstddef>
#include <map>
#include <string_view>
#include <tuple>
#include <vector>

#include "machine/params.hpp"
#include "machine/topology.hpp"
#include "util/check.hpp"

namespace srm::coll {

enum class TreeKind { binomial, binary, fibonacci, flat, bine };

const char* tree_kind_name(TreeKind k);
/// Parse @p s into @p out; false (out untouched) when unknown.
bool tree_kind_from_name(std::string_view s, TreeKind& out);

/// Rooted tree over vertices [0, n). Children are stored in the order a
/// reduce expects arrivals (small subtrees first for binomial); a broadcast
/// should iterate them in reverse (largest subtree first).
struct Tree {
  int n = 0;
  int root = 0;
  std::vector<int> parent;                 ///< parent[v]; -1 for the root
  std::vector<std::vector<int>> children;  ///< children[v], construction order

  /// Longest root-to-leaf edge count.
  int height() const;
  /// Size of the subtree rooted at v (v itself included).
  int subtree_size(int v) const;
  /// Structural validation: spanning, acyclic, consistent parent/children.
  void validate() const;
};

/// Build a tree of @p kind over @p n vertices rooted at @p root.
Tree build_tree(TreeKind kind, int n, int root);

Tree binomial_tree(int n, int root);
Tree binary_tree(int n, int root);
Tree fibonacci_tree(int n, int root);
Tree flat_tree(int n, int root);

/// Bine ("binomial negabinary", PAPERS.md 2508.17311) dissemination tree:
/// step k connects virtual rank u to u ± rho_k (mod n) with
/// rho_k = (1 - (-2)^(k+1)) / 3 and the sign set by u's parity, so
/// consecutive steps alternate direction and the informed set stays
/// contiguous on the ring — distance-1 edges dominate, which is what makes
/// the shape locality-friendly on non-power-of-two vertex counts where the
/// binomial tree's long edges go lopsided. Vertices the bounded dissemination
/// misses (possible off the power of two) attach flat to the root.
Tree bine_tree(int n, int root);

/// Hierarchy-aware intra-node tree over @p n local tasks: root -> socket
/// leaders -> L3 leaders -> cores, so every cache-domain boundary is crossed
/// by exactly one tree edge (the single-copy protocols hang one cross-domain
/// window transfer on each such edge). The root leads its own socket and L3
/// slice; every other domain is led by its lowest local task. Degenerates to
/// a flat tree on a single-domain topology.
///
/// With @p binomial, members of each domain group hang off their leader in
/// binomial order instead of flat: fan-in work (reduce combines, serialized
/// at every parent) parallelizes across the tree's interior, while fan-out
/// consumers (broadcast pulls, which overlap on the bus anyway) prefer the
/// flat shape. On a single-domain topology the binomial variant is exactly
/// binomial_tree(n, root).
Tree topo_tree(const machine::TopologyParams& tp, int n, int root,
               bool binomial = false);

/// The SMP-aware embedding of a collective into a cluster (Fig. 1): a tree
/// over node ids whose vertices are led by one network-facing task each.
/// The leader of the root's node is the root itself (arbitrary-root support
/// without extra copies, §2.2); every other node is led by its master (local
/// rank 0). Each protocol picks its own intra-node tree shape and hangs it
/// off local_of(leader(node)).
struct Embedding {
  int root = 0;           ///< global root rank
  const Tree& internode;  ///< over node ids, rooted at node_of(root)
  const machine::Topology* topo = nullptr;

  /// The network-facing rank of @p node.
  int leader(int node) const {
    return node == internode.root ? root : topo->master_of(node);
  }
};

/// Memo of immutable trees keyed by (shape, n, root), where the shape is a
/// TreeKind or a topo_tree layout. A tree follows from its key alone, so one
/// memo serves every rank and call of a backend (each coll::Collectives owns
/// one) and references stay valid for its lifetime. @p topo (the cluster
/// embed() spans) and @p tp (the node topology of topo()) must outlive it.
class TreeMemo {
 public:
  TreeMemo(const machine::Topology& topo, const machine::TopologyParams& tp)
      : topo_(&topo), tp_(&tp) {}

  /// build_tree(kind, n, root).
  const Tree& tree(TreeKind kind, int n, int root) {
    return get(static_cast<int>(kind), n, root);
  }
  /// topo_tree(tp, n, root, binomial).
  const Tree& topo(int n, int root, bool binomial = false) {
    return get(binomial ? kTopoBinomial : kTopoFlat, n, root);
  }
  /// The embedding of a collective rooted at rank @p root: an
  /// @p internode_kind tree over the cluster's nodes.
  Embedding embed(int root, TreeKind internode_kind);

  /// Trees built so far.
  std::size_t size() const noexcept { return trees_.size(); }

 private:
  static constexpr int kTopoFlat = static_cast<int>(TreeKind::bine) + 1;
  static constexpr int kTopoBinomial = kTopoFlat + 1;
  const Tree& get(int shape, int n, int root);

  const machine::Topology* topo_;
  const machine::TopologyParams* tp_;
  std::map<std::tuple<int, int, int>, Tree> trees_;  // (shape, n, root)
};

}  // namespace srm::coll

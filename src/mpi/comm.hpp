// Mini-MPI: the message-passing baseline the paper compares against.
//
// Point-to-point with MPI semantics (tags, wildcards, non-overtaking order)
// over the same simulated cluster the SRM collectives use:
//
//  * intra-node: a 2-copy pipelined shared-memory channel — the sender copies
//    user data into bounded shm chunk slots, the receiver copies it out
//    (exactly the structure whose copy count the paper's Fig. 2 argument
//    targets);
//  * inter-node, Eager (size <= eager limit): data ships immediately and is
//    staged at the receiver; the receiving task pays tag matching plus a
//    staging->user copy. The eager limit *shrinks with the task count* for
//    the IBM profile, pushing medium messages onto the slower path (§2.3);
//  * inter-node, Rendezvous: RTS -> match -> CTS -> direct data; no staging
//    copy but an extra control round trip.
//
// Two tuning profiles model the paper's comparators: `ibm` (vendor-tuned,
// adaptive eager limit) and `mpich` (extra software layer over MPL/MPCI:
// higher per-call and matching costs, fixed eager limit).
#pragma once

#include <cstddef>
#include <deque>
#include <memory>
#include <string>
#include <vector>

#include "coll/buf.hpp"
#include "coll/iface.hpp"
#include "coll/ops.hpp"
#include "machine/cluster.hpp"
#include "sim/task.hpp"
#include "sim/trigger.hpp"
#include "sim/wait.hpp"

namespace srm::minimpi {

inline constexpr int kAnySource = -1;
inline constexpr int kAnyTag = -1;

class World;

/// Handle for a nonblocking operation.
struct Request {
  std::shared_ptr<sim::Trigger> done;
};

/// Per-rank MPI library state + API.
class Comm {
 public:
  Comm(World& world, machine::TaskCtx& ctx);
  Comm(const Comm&) = delete;
  Comm& operator=(const Comm&) = delete;

  int rank() const noexcept { return ctx_->rank; }
  int nranks() const noexcept { return ctx_->nranks(); }

  /// Blocking send: returns when @p buf is reusable.
  sim::CoTask send(int dst, int tag, const void* buf, std::size_t bytes);
  /// Blocking receive into @p buf (must be at least @p bytes long).
  sim::CoTask recv(int src, int tag, void* buf, std::size_t bytes);

  Request isend(int dst, int tag, const void* buf, std::size_t bytes);
  Request irecv(int src, int tag, void* buf, std::size_t bytes);
  sim::CoTask wait(Request req);

  /// Simultaneous send+receive (building block of recursive doubling).
  sim::CoTask sendrecv(int dst, int stag, const void* sbuf, std::size_t sbytes,
                       int src, int rtag, void* rbuf, std::size_t rbytes);

  // ---- Collectives (MPICH-era algorithms over point-to-point) ----

  /// Binomial-tree broadcast.
  sim::CoTask bcast(void* buf, std::size_t bytes, int root);
  /// Binomial-tree reduce; @p recv significant at the root only.
  sim::CoTask reduce(const void* send, void* recv, std::size_t count,
                     coll::Dtype d, coll::RedOp op, int root);
  /// Recursive-doubling allreduce (with the non-power-of-two fold).
  sim::CoTask allreduce(const void* send, void* recv, std::size_t count,
                        coll::Dtype d, coll::RedOp op);
  /// MPICH-1-era barrier (binomial gather + release).
  sim::CoTask barrier();

  /// Linear scatter/gather (the MPICH-1 algorithms: the root exchanges one
  /// message with every other rank), equal counts. World's Collectives face
  /// composes allgather (gather + bcast) and reduce_scatter (reduce +
  /// scatter) from these.
  sim::CoTask scatter(const void* sendbuf, void* recvbuf,
                      std::size_t bytes_per, int root);
  sim::CoTask gather(const void* sendbuf, void* recvbuf,
                     std::size_t bytes_per, int root);

  machine::TaskCtx& ctx() noexcept { return *ctx_; }
  World& world() noexcept { return *world_; }

 private:
  friend class World;

  sim::CoTask send_shm(Comm& dst, int tag, const void* buf, std::size_t bytes);
  sim::CoTask send_eager(Comm& dst, int tag, const void* buf,
                         std::size_t bytes);
  sim::CoTask send_rndv(Comm& dst, int tag, const void* buf,
                        std::size_t bytes);

  World* world_;
  machine::TaskCtx* ctx_;
  const machine::MpiParams* mp_;
  // Observability cells keyed by sender rank: one per send path.
  obs::Counter* shm_ctr_;
  obs::Counter* eager_ctr_;
  obs::Counter* rndv_ctr_;

  // ---- receiver-side state ----
  struct ShmPipe;
  struct RndvState;
  struct Envelope {
    int src;
    int tag;
    std::size_t bytes;
    enum class Kind { shm, eager, rts } kind;
    std::shared_ptr<ShmPipe> pipe;          // kind == shm
    std::vector<std::byte> staged;          // kind == eager
    std::shared_ptr<RndvState> rndv;        // kind == rts
    std::shared_ptr<chk::MsgClock> hb;      // sender clock at send time
  };
  void enqueue(Envelope env);  // called at modelled arrival time
  std::shared_ptr<chk::MsgClock> hb_fork();
  void hb_acquire(const std::shared_ptr<chk::MsgClock>& m);
  std::deque<Envelope> arrived_;
  sim::WaitQueue arrival_wq_;
  std::uint64_t coll_seq_ = 0;  // per-rank collective sequence number
};

/// One Comm per rank plus the shared profile. World is the mini-MPI's face
/// of the shared Collectives interface: its hooks forward real descriptors
/// to the calling rank's Comm under an "mpi.<op>" span on that rank's
/// timeline. coll::Collectives runs symbolic calls itself, on the shared
/// symbolic cost skeleton (coll/symbolic.hpp) with an MPI cost profile
/// (per-call + layering software overhead per message) and the default
/// binomial Decision, so benches drive SRM and MPI through the same
/// virtual calls in either mode. Comms materialize on first use — symbolic
/// runs never build the per-rank point-to-point machinery — and read their
/// collective trees from the World's shared coll::TreeMemo.
class World final : public coll::Collectives {
 public:
  World(machine::Cluster& cluster, const machine::MpiParams& profile,
        std::string name);

  Comm& comm(int rank) {
    auto& c = comms_.at(static_cast<std::size_t>(rank));
    if (c == nullptr) c = std::make_unique<Comm>(*this, cluster_->ctx(rank));
    return *c;
  }
  machine::Cluster& cluster() noexcept { return *cluster_; }
  const machine::MpiParams& profile() const noexcept { return profile_; }
  const std::string& name() const noexcept { return name_; }
  std::size_t eager_limit() const noexcept { return eager_limit_; }

  std::string label() const override { return "mpi/" + name_; }

 protected:
  // ---- coll::Collectives hooks (real plane) ----
  sim::CoTask v_bcast(machine::TaskCtx& t, coll::Buf buf, int root) override;
  sim::CoTask v_reduce(machine::TaskCtx& t, coll::Buf send, coll::Buf recv,
                       coll::RedOp op, int root) override;
  sim::CoTask v_allreduce(machine::TaskCtx& t, coll::Buf send, coll::Buf recv,
                          coll::RedOp op) override;
  sim::CoTask v_barrier(machine::TaskCtx& t) override;
  sim::CoTask v_scatter(machine::TaskCtx& t, coll::Buf send, coll::Buf recv,
                        int root) override;
  sim::CoTask v_gather(machine::TaskCtx& t, coll::Buf send, coll::Buf recv,
                       int root) override;

 private:
  machine::Cluster* cluster_;
  machine::MpiParams profile_;
  std::string name_;
  std::size_t eager_limit_;
  std::vector<std::unique_ptr<Comm>> comms_;
};

}  // namespace srm::minimpi

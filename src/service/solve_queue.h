#pragma once
// Solver-as-a-service front end: dynamic right-hand-side batching over the
// batched distributed MG path (paper section 9 meets an inference server).
//
// The section-9 MRHS strategy only pays off when many right-hand sides
// share one batched solve, but production lattice workloads present
// thousands of INDEPENDENT solve requests streaming in.  The SolveQueue
// closes that gap: callers submit one rhs at a time (with a SolveSpec, a
// tenant id routing to a registered QmgContext, and an optional deadline),
// and a dispatcher thread aggregates batch-compatible requests into
// BlockSpinor batches under a latency budget — flush on max-nrhs or
// max-wait, whichever first — dispatching each batch through
// QmgContext::solve.  The block solvers' per-rhs convergence masking
// retires every rhs at its own iteration count and keeps each rhs
// bit-identical to a direct block solve, HOWEVER the queue happened to
// compose the batch (tested).
//
// Completion is future-based: submit() returns a SolveTicket whose
// wait()/report()/solution() deliver the per-rhs SolveReport and solution
// field once the batch retires.  Warm state — the MG hierarchy, the
// process-wide TuneCache, the comm workers — is shared across tenants
// because all batches of a tenant run on its one registered context (two
// tenant ids may even alias one context), and the single dispatcher thread
// serializes solves so contexts need no locking of their own.
//
// The queue meters itself (stats()): queue depth, batch fill fraction,
// per-rhs p50/p99 latency, and coarse messages per retired rhs — the
// amortization curve bench/bench_service.cpp records against offered load.
//
// Threading contract: submit()/flush()/stats() are safe from any thread
// (TSan-tested); solves run only on the dispatcher thread, so no other
// thread may run direct solves on a registered context while the queue is
// live.

#include <chrono>
#include <deque>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "core/context.h"
#include "util/thread_annotations.h"

namespace qmg {

struct QueueOptions {
  /// Flush a batch as soon as this many compatible rhs are pending (also
  /// the hard cap on the nrhs of one dispatched block solve).
  int max_nrhs = 12;
  /// Latency budget: flush a partial batch once its oldest request has
  /// waited this long (the inference-server max-wait knob).
  double max_wait_seconds = 0.05;
};

/// One independent solve request.  The rhs field is moved into the queue;
/// `tenant` must name a context registered with add_tenant().  A
/// non-negative deadline caps THIS request's queue wait below the queue's
/// max_wait_seconds (0 forces the next dispatch to take it immediately).
struct SolveRequest {
  std::string tenant;
  ColorSpinorField<double> rhs;
  SolveSpec spec;
  double deadline_seconds = -1;
};

/// Self-metering snapshot (see stats()).
struct QueueStats {
  long submitted = 0;
  long retired = 0;
  long failed = 0;
  long batches = 0;
  long depth = 0;              // currently queued, not yet dispatched
  double mean_batch_nrhs = 0;  // rhs per dispatched batch
  double batch_fill = 0;       // mean_batch_nrhs / max_nrhs
  double p50_latency_seconds = 0;  // submit -> retire, per rhs
  double p99_latency_seconds = 0;
  /// Communication totals over all retired batches (distributed specs
  /// only): coarse_messages_per_rhs is the amortization metric — it FALLS
  /// as offered load rises and batches fill, because a batched exchange
  /// carries every rhs of its batch in one message per rank/face.
  long messages = 0;
  long coarse_messages = 0;
  double coarse_messages_per_rhs = 0;
  /// Gauge-update meters (update_gauge): updates applied by the
  /// dispatcher, split by how the tenant's hierarchy followed — cache
  /// restore, warm refresh, escalated full rebuild — plus updates whose
  /// application threw (their epoch still advances; see update_gauge).
  long gauge_updates = 0;
  long cache_restores = 0;
  long hierarchy_refreshes = 0;
  long full_rebuilds = 0;
  long failed_updates = 0;
};

namespace detail {

/// Shared completion state behind a SolveTicket (mutex + cv future).  The
/// dispatcher writes the result fields under `m` before flipping `done`;
/// ticket readers hold `m` across every access — a compile-time contract
/// under the thread-safety analysis.
struct TicketState {
  Mutex m;
  CondVar cv;
  bool done QMG_GUARDED_BY(m) = false;
  bool failed QMG_GUARDED_BY(m) = false;
  std::string error QMG_GUARDED_BY(m);
  ColorSpinorField<double> x QMG_GUARDED_BY(m);
  SolveReport report QMG_GUARDED_BY(m);
};

}  // namespace detail

/// Future-based handle to one submitted request.  Copyable (shared state);
/// report()/solution() block until the batch retires and throw
/// std::runtime_error if the solve threw.
class SolveTicket {
 public:
  SolveTicket() = default;
  bool valid() const { return state_ != nullptr; }

  bool ready() const {
    check_valid();
    MutexLock lk(state_->m);
    return state_->done;
  }
  void wait() const {
    check_valid();
    MutexLock lk(state_->m);
    while (!state_->done) state_->cv.wait(lk);
  }
  /// False on timeout.  The result signals whether the report is ready —
  /// dropping it and then reading the ticket is a latent use-before-done,
  /// hence [[nodiscard]].
  [[nodiscard]] bool wait_for(double seconds) const {
    check_valid();
    const auto deadline = std::chrono::steady_clock::now() +
                          std::chrono::duration_cast<std::chrono::steady_clock::duration>(
                              std::chrono::duration<double>(seconds));
    MutexLock lk(state_->m);
    while (!state_->done) {
      if (state_->cv.wait_until(lk, deadline) == std::cv_status::timeout)
        return state_->done;
    }
    return true;
  }

  /// The per-rhs report of this request: its SolverResult, the batch it
  /// rode in (batch_nrhs, queue_wait_seconds) and that batch's
  /// communication stats (shared by every rhs of the batch).  The returned
  /// reference is stable once done: only the dispatcher writes the state,
  /// exactly once, before flipping `done`.
  const SolveReport& report() const {
    wait_checked();
    MutexLock lk(state_->m);
    return state_->report;
  }
  const ColorSpinorField<double>& solution() const {
    wait_checked();
    MutexLock lk(state_->m);
    return state_->x;
  }
  ColorSpinorField<double> take_solution() {
    wait_checked();
    MutexLock lk(state_->m);
    return std::move(state_->x);
  }

 private:
  friend class SolveQueue;
  explicit SolveTicket(std::shared_ptr<detail::TicketState> state)
      : state_(std::move(state)) {}
  void check_valid() const {
    if (!state_) throw std::logic_error("SolveTicket: empty ticket");
  }
  void wait_checked() const {
    check_valid();
    MutexLock lk(state_->m);
    while (!state_->done) state_->cv.wait(lk);
    if (state_->failed)
      throw std::runtime_error("SolveTicket: solve failed: " + state_->error);
  }
  std::shared_ptr<detail::TicketState> state_;
};

class SolveQueue {
 public:
  explicit SolveQueue(QueueOptions options = QueueOptions{});
  ~SolveQueue();  // stop(): drains everything pending, then joins

  SolveQueue(const SolveQueue&) = delete;
  SolveQueue& operator=(const SolveQueue&) = delete;

  /// Route requests with request.tenant == id to `ctx`.  Non-owning: the
  /// context must outlive the queue.  Registering two ids against one
  /// context shares its warm state (MG hierarchy, tuned kernels) across
  /// both tenants.  A SolveMethod::Mg tenant must have its multigrid set
  /// up before its first batch dispatches.
  void add_tenant(const std::string& id, QmgContext& ctx);

  /// Enqueue one request (thread-safe).  Throws std::invalid_argument for
  /// an unknown tenant.  The returned ticket completes when the batch the
  /// request was aggregated into retires — dropping it orphans the only
  /// handle to the solution, hence [[nodiscard]].
  [[nodiscard]] SolveTicket submit(SolveRequest request) QMG_EXCLUDES(m_);

  /// Swap tenant `id`'s gauge configuration between batches — the
  /// streaming-ensemble path — WITHOUT dropping queued tickets.  The epoch
  /// protocol: every request is tagged at submit() with the tenant's
  /// current update epoch, and the update enqueued here (epoch N) is
  /// applied by the dispatcher thread — via QmgContext::update_gauge, so
  /// cache restore / hierarchy refresh / escalation all apply — only once
  /// every pending epoch-<N request of the tenant has dispatched; requests
  /// submitted after this call wait for it.  Each batch holds a single
  /// epoch, so every rhs is solved against exactly the configuration that
  /// was current when it was submitted.  Thread-safe and asynchronous
  /// (solves and updates both run on the dispatcher thread); stop() drains
  /// queued updates after the last batch.  An update whose application
  /// throws is counted in stats().failed_updates and logged, and its epoch
  /// still advances — later requests then run against the last
  /// successfully-applied configuration rather than wedging the queue.
  /// Throws std::invalid_argument for an unknown tenant.  Note: epochs are
  /// per tenant id — two ids aliasing one context must route their gauge
  /// updates through a single id.
  void update_gauge(const std::string& id, const std::string& config_id,
                    GaugeField<double> gauge) QMG_EXCLUDES(m_);

  /// Force every pending request to dispatch at the next opportunity
  /// (asynchronous; wait on the tickets for completion).
  void flush() QMG_EXCLUDES(m_);

  /// Drain all pending requests, retire them, and join the dispatcher.
  /// Idempotent; called by the destructor.  submit() after stop() throws.
  void stop() QMG_EXCLUDES(m_);

  QueueStats stats() const QMG_EXCLUDES(m_);
  const QueueOptions& options() const { return options_; }

 private:
  using Clock = std::chrono::steady_clock;

  struct Pending {
    std::shared_ptr<detail::TicketState> ticket;
    ColorSpinorField<double> rhs;
    SolveSpec spec;
    QmgContext* ctx = nullptr;
    std::string tenant;
    long epoch = 0;  // tenant's submitted_epoch when this request arrived
    Clock::time_point submitted;
    Clock::time_point flush_by;  // submitted + min(max_wait, deadline)
  };

  /// A queued gauge swap: applied once every pending request with a lower
  /// epoch has dispatched.
  struct PendingUpdate {
    std::string config_id;
    GaugeField<double> gauge;
    long epoch = 0;
  };

  struct Tenant {
    QmgContext* ctx = nullptr;
    long submitted_epoch = 0;  // epoch new requests are tagged with
    long applied_epoch = 0;    // epoch the context's gauge corresponds to
    std::deque<PendingUpdate> updates;
  };

  void worker() QMG_EXCLUDES(m_);
  void run_batch(std::vector<Pending>& batch) QMG_EXCLUDES(m_);
  static std::string batch_key(const std::string& tenant,
                               const SolveSpec& spec);

  QueueOptions options_;
  mutable Mutex m_;
  CondVar cv_;
  std::map<std::string, Tenant> tenants_ QMG_GUARDED_BY(m_);
  /// Pending requests, FIFO per batch key (tenant + spec signature, see
  /// batch_compatible): one key's queue only ever holds mutually
  /// batch-compatible requests.
  std::map<std::string, std::deque<Pending>> pending_ QMG_GUARDED_BY(m_);
  bool stopping_ QMG_GUARDED_BY(m_) = false;

  // Meters.
  long submitted_ QMG_GUARDED_BY(m_) = 0;
  long retired_ QMG_GUARDED_BY(m_) = 0;
  long failed_ QMG_GUARDED_BY(m_) = 0;
  long batches_ QMG_GUARDED_BY(m_) = 0;
  long depth_ QMG_GUARDED_BY(m_) = 0;
  long sum_batch_nrhs_ QMG_GUARDED_BY(m_) = 0;
  long messages_ QMG_GUARDED_BY(m_) = 0;
  long coarse_messages_ QMG_GUARDED_BY(m_) = 0;
  long gauge_updates_ QMG_GUARDED_BY(m_) = 0;
  long cache_restores_ QMG_GUARDED_BY(m_) = 0;
  long hierarchy_refreshes_ QMG_GUARDED_BY(m_) = 0;
  long full_rebuilds_ QMG_GUARDED_BY(m_) = 0;
  long failed_updates_ QMG_GUARDED_BY(m_) = 0;
  /// Submit -> retire, one entry per rhs.
  std::vector<double> latencies_ QMG_GUARDED_BY(m_);

  /// Last member: starts in the ctor body.  Guarded so concurrent stop()
  /// calls cannot both observe it joinable and both join.
  std::thread dispatcher_ QMG_GUARDED_BY(m_);
};

}  // namespace qmg

#include "service/solve_queue.h"

#include <algorithm>
#include <cstdio>
#include <limits>

#include "util/logger.h"

namespace qmg {

namespace {

/// Nearest-rank percentile of an unsorted sample (copies; snapshot-sized).
double percentile(std::vector<double> xs, double p) {
  if (xs.empty()) return 0;
  const size_t idx = std::min(
      xs.size() - 1, static_cast<size_t>(p * static_cast<double>(xs.size())));
  std::nth_element(xs.begin(), xs.begin() + static_cast<long>(idx), xs.end());
  return xs[idx];
}

}  // namespace

std::string SolveQueue::batch_key(const std::string& tenant,
                                  const SolveSpec& spec) {
  // Every field batch_compatible() compares is encoded, so two requests
  // share a key exactly when they may share a batch.  %a prints the exact
  // bits of tol (no rounding collisions).
  char buf[160];
  std::snprintf(buf, sizeof(buf), "|m%d|t%a|i%d|e%d|p%d|r%d|h%d|w%d|y%d",
                static_cast<int>(spec.method), spec.tol, spec.max_iter,
                spec.eo ? 1 : 0, static_cast<int>(spec.bicg_inner),
                spec.nranks, static_cast<int>(spec.halo),
                static_cast<int>(spec.halo_wire),
                spec.record_history ? 1 : 0);
  return tenant + buf;
}

SolveQueue::SolveQueue(QueueOptions options) : options_(options) {
  if (options_.max_nrhs <= 0)
    throw std::invalid_argument("SolveQueue: max_nrhs must be positive, got " +
                                std::to_string(options_.max_nrhs));
  if (options_.max_wait_seconds < 0)
    throw std::invalid_argument("SolveQueue: max_wait_seconds must be >= 0");
  dispatcher_ = std::thread([this] { worker(); });
}

SolveQueue::~SolveQueue() { stop(); }

void SolveQueue::add_tenant(const std::string& id, QmgContext& ctx) {
  MutexLock lk(m_);
  tenants_[id].ctx = &ctx;
}

void SolveQueue::update_gauge(const std::string& id,
                              const std::string& config_id,
                              GaugeField<double> gauge) {
  {
    MutexLock lk(m_);
    if (stopping_)
      throw std::logic_error("SolveQueue: update_gauge() after stop()");
    const auto it = tenants_.find(id);
    if (it == tenants_.end())
      throw std::invalid_argument("SolveQueue: unknown tenant '" + id + "'");
    Tenant& t = it->second;
    PendingUpdate upd;
    upd.config_id = config_id;
    upd.gauge = std::move(gauge);
    upd.epoch = ++t.submitted_epoch;
    t.updates.push_back(std::move(upd));
  }
  cv_.notify_all();
}

SolveTicket SolveQueue::submit(SolveRequest request) {
  auto state = std::make_shared<detail::TicketState>();
  Pending p;
  p.ticket = state;
  p.rhs = std::move(request.rhs);
  p.spec = request.spec;
  p.submitted = Clock::now();
  double wait = options_.max_wait_seconds;
  if (request.deadline_seconds >= 0)
    wait = std::min(wait, request.deadline_seconds);
  p.flush_by = p.submitted + std::chrono::duration_cast<Clock::duration>(
                                 std::chrono::duration<double>(wait));
  {
    MutexLock lk(m_);
    if (stopping_)
      throw std::logic_error("SolveQueue: submit() after stop()");
    const auto it = tenants_.find(request.tenant);
    if (it == tenants_.end())
      throw std::invalid_argument("SolveQueue: unknown tenant '" +
                                  request.tenant + "'");
    p.ctx = it->second.ctx;
    p.tenant = request.tenant;
    p.epoch = it->second.submitted_epoch;
    pending_[batch_key(request.tenant, request.spec)].push_back(std::move(p));
    ++submitted_;
    ++depth_;
  }
  cv_.notify_all();
  return SolveTicket(std::move(state));
}

void SolveQueue::flush() {
  const auto now = Clock::now();
  {
    MutexLock lk(m_);
    for (auto& entry : pending_)
      for (auto& p : entry.second) p.flush_by = now;
  }
  cv_.notify_all();
}

void SolveQueue::stop() {
  std::thread to_join;
  {
    MutexLock lk(m_);
    stopping_ = true;
    const auto now = Clock::now();
    for (auto& entry : pending_)
      for (auto& p : entry.second) p.flush_by = now;
    // Claim the dispatcher under the lock so concurrent stop() calls
    // cannot both join it.
    if (dispatcher_.joinable()) to_join = std::move(dispatcher_);
  }
  cv_.notify_all();
  if (to_join.joinable()) to_join.join();
}

void SolveQueue::worker() {
  MutexLock lk(m_);
  while (true) {
    // Phase 0 — gauge swaps.  A tenant's oldest queued update (epoch N)
    // is due once no pending request with epoch < N remains: per-key
    // deques are FIFO, so each front() carries that key's minimum epoch.
    // The update itself runs outside the lock on this (dispatcher) thread,
    // like the batches it interleaves with, so submit()/stats() never
    // block behind a hierarchy refresh; one update per pass, then restart
    // the scan (the containers may have changed while unlocked).
    {
      bool applied = false;
      for (auto& entry : tenants_) {
        Tenant& t = entry.second;
        if (t.updates.empty()) continue;
        long min_epoch = std::numeric_limits<long>::max();
        for (const auto& pe : pending_)
          if (!pe.second.empty() && pe.second.front().tenant == entry.first)
            min_epoch = std::min(min_epoch, pe.second.front().epoch);
        if (t.updates.front().epoch > min_epoch) continue;
        PendingUpdate upd = std::move(t.updates.front());
        t.updates.pop_front();
        QmgContext* ctx = t.ctx;
        lk.unlock();
        bool ok = true;
        GaugeUpdateReport urep;
        try {
          urep = ctx->update_gauge(upd.config_id, upd.gauge);
        } catch (const std::exception& e) {
          ok = false;
          log_summary("SolveQueue: gauge update '%s' failed: %s\n",
                      upd.config_id.c_str(), e.what());
        }
        lk.lock();
        // The map entry is stable across the unlock (tenants are never
        // erased).  The epoch advances even on failure — wedging every
        // later request behind a bad configuration would be worse than
        // solving them on the last good one (documented).
        t.applied_epoch = upd.epoch;
        ++gauge_updates_;
        if (!ok)
          ++failed_updates_;
        else if (urep.restored_from_cache)
          ++cache_restores_;
        else if (urep.escalated)
          ++full_rebuilds_;
        else if (urep.hierarchy_updated)
          ++hierarchy_refreshes_;
        applied = true;
        break;
      }
      if (applied) continue;
    }

    // Pick the next batch to dispatch: any key at max_nrhs flushes
    // immediately; otherwise the key whose oldest request's latency budget
    // has expired.  FIFO within a key keeps batch composition deterministic
    // for a deterministic submission order.  A key whose front request is
    // tagged with a not-yet-applied epoch is skipped — its gauge swap is
    // waiting on OTHER keys' older requests, whose flush deadlines bound
    // the wait.
    const auto now = Clock::now();
    auto ready = pending_.end();
    Clock::time_point earliest = Clock::time_point::max();
    for (auto it = pending_.begin(); it != pending_.end(); ++it) {
      const Pending& front = it->second.front();
      if (front.epoch != tenants_.find(front.tenant)->second.applied_epoch)
        continue;
      if (static_cast<int>(it->second.size()) >= options_.max_nrhs ||
          front.flush_by <= now) {
        ready = it;
        break;
      }
      earliest = std::min(earliest, front.flush_by);
    }
    if (ready == pending_.end()) {
      if (stopping_ && pending_.empty()) break;
      if (pending_.empty())
        cv_.wait(lk);
      else
        cv_.wait_until(lk, earliest);
      continue;
    }

    // Same-epoch prefix only: a batch runs against ONE configuration, and
    // requests tagged after a queued gauge swap stay behind until it
    // applies.
    std::vector<Pending> batch;
    batch.reserve(static_cast<size_t>(options_.max_nrhs));
    auto& q = ready->second;
    const long epoch = q.front().epoch;
    while (!q.empty() && static_cast<int>(batch.size()) < options_.max_nrhs &&
           q.front().epoch == epoch) {
      batch.push_back(std::move(q.front()));
      q.pop_front();
    }
    if (q.empty()) pending_.erase(ready);
    depth_ -= static_cast<long>(batch.size());

    lk.unlock();
    run_batch(batch);
    lk.lock();
  }
}

void SolveQueue::run_batch(std::vector<Pending>& batch) {
  const int nrhs = static_cast<int>(batch.size());
  const auto dispatched = Clock::now();

  std::vector<ColorSpinorField<double>> bs, xs;
  bs.reserve(static_cast<size_t>(nrhs));
  xs.reserve(static_cast<size_t>(nrhs));
  for (auto& p : batch) {
    xs.push_back(p.rhs.similar());
    bs.push_back(std::move(p.rhs));
  }

  SolveReport rep;
  bool ok = true;
  std::string error;
  try {
    // One batched solve for the whole aggregation; the key guarantees one
    // context and one spec.  Per-rhs masking inside the block solvers
    // keeps every rhs bit-identical to a direct solve of any batch
    // containing it.
    rep = batch.front().ctx->solve(xs, bs, batch.front().spec);
  } catch (const std::exception& e) {
    ok = false;
    error = e.what();
  }
  const auto retired = Clock::now();

  // Record the batch in the meters BEFORE fulfilling any ticket: a caller
  // unblocked by its ticket must see this batch reflected in stats().
  {
    MutexLock lk(m_);
    ++batches_;
    sum_batch_nrhs_ += nrhs;
    if (ok) {
      retired_ += nrhs;
      messages_ += rep.comm.messages;
      coarse_messages_ += rep.coarse_comm.messages;
      for (const auto& p : batch)
        latencies_.push_back(
            std::chrono::duration<double>(retired - p.submitted).count());
    } else {
      failed_ += nrhs;
    }
  }

  for (int k = 0; k < nrhs; ++k) {
    auto& p = batch[static_cast<size_t>(k)];
    MutexLock tlk(p.ticket->m);
    if (ok) {
      SolveReport& r = p.ticket->report;
      r.method = rep.method;
      r.nrhs = 1;
      r.rhs.assign(1, rep.rhs[static_cast<size_t>(k)]);
      r.block_matvecs = rep.block_matvecs;
      r.block_reductions = rep.block_reductions;
      r.seconds = rep.seconds;
      r.comm = rep.comm;                // batch-level, shared by every rhs
      r.coarse_comm = rep.coarse_comm;  // (documented on SolveTicket)
      r.distributed = rep.distributed;
      r.mg_setup = rep.mg_setup;  // the hierarchy this batch ran on
      r.batch_nrhs = nrhs;
      r.queue_wait_seconds =
          std::chrono::duration<double>(dispatched - p.submitted).count();
      p.ticket->x = std::move(xs[static_cast<size_t>(k)]);
    } else {
      p.ticket->failed = true;
      p.ticket->error = error;
    }
    p.ticket->done = true;
    p.ticket->cv.notify_all();
  }
}

QueueStats SolveQueue::stats() const {
  MutexLock lk(m_);
  QueueStats s;
  s.submitted = submitted_;
  s.retired = retired_;
  s.failed = failed_;
  s.batches = batches_;
  s.depth = depth_;
  if (batches_ > 0) {
    s.mean_batch_nrhs =
        static_cast<double>(sum_batch_nrhs_) / static_cast<double>(batches_);
    s.batch_fill = s.mean_batch_nrhs / static_cast<double>(options_.max_nrhs);
  }
  s.p50_latency_seconds = percentile(latencies_, 0.50);
  s.p99_latency_seconds = percentile(latencies_, 0.99);
  s.messages = messages_;
  s.coarse_messages = coarse_messages_;
  s.gauge_updates = gauge_updates_;
  s.cache_restores = cache_restores_;
  s.hierarchy_refreshes = hierarchy_refreshes_;
  s.full_rebuilds = full_rebuilds_;
  s.failed_updates = failed_updates_;
  if (retired_ > 0)
    s.coarse_messages_per_rhs =
        static_cast<double>(coarse_messages_) / static_cast<double>(retired_);
  return s;
}

}  // namespace qmg

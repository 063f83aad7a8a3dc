#include "comm/dist_coarse.h"

#include <cstdint>
#include <stdexcept>
#include <string>

#include "dirac/gamma.h"
#include "fields/blas.h"
#include "mg/coarse_stencil.h"
#include "parallel/dispatch.h"

namespace qmg {

template <typename T>
DistributedCoarseOp<T>::DistributedCoarseOp(const CoarseDirac<T>& global,
                                            DecompositionPtr dec)
    : dec_(std::move(dec)), nc_(global.ncolor()), n_(global.block_dim()) {
  const int nranks = dec_->nranks();
  const long v = dec_->local_volume();

  // Split the global stencil over the ranks in its own storage format: a
  // raw copy of each rank's sites (Half16's int16 blocks and scales too),
  // so every per-rank stencil row resolves bit-identically to the global
  // one.  The diagonal inverse travels along, whatever its precision.
  std::vector<long> sites(static_cast<size_t>(v));
  stencil_.reserve(static_cast<size_t>(nranks));
  for (int r = 0; r < nranks; ++r) {
    for (long i = 0; i < v; ++i)
      sites[static_cast<size_t>(i)] = dec_->global_index(r, i);
    stencil_.push_back(global.stencil().extract_sites(sites));
  }

  // Global-parity partition of every rank's local sites.  Parity must be
  // computed from GLOBAL coordinates: a subdomain whose origin has odd
  // parity sees the local checkerboard flipped, and the Schur complement is
  // defined on the global red-black coloring.
  const auto& global_geom = *dec_->global();
  std::vector<std::uint8_t> is_boundary(static_cast<size_t>(v), 0);
  for (const long s : dec_->boundary_sites())
    is_boundary[static_cast<size_t>(s)] = 1;
  parity_all_.resize(nranks);
  parity_interior_.resize(nranks);
  parity_boundary_.resize(nranks);
  for (int r = 0; r < nranks; ++r) {
    for (long i = 0; i < v; ++i) {
      const int p = global_geom.parity(dec_->global_index(r, i));
      parity_all_[r][static_cast<size_t>(p)].push_back(i);
      if (is_boundary[static_cast<size_t>(i)])
        parity_boundary_[r][static_cast<size_t>(p)].push_back(i);
      else
        parity_interior_[r][static_cast<size_t>(p)].push_back(i);
    }
  }
}

template <typename T>
template <typename F>
void DistributedCoarseOp<T>::check_field(const F& f, const char* what) const {
  if (f.site_dof() != n_ || f.decomposition() != dec_)
    throw std::invalid_argument(
        std::string("dist coarse ") + what +
        ": field is not of this operator's decomposition and N = " +
        std::to_string(n_));
}

namespace {

/// A rank's resolver: neighbour indices from the decomposition, data from
/// the rank's local sites or, past the local volume, its ghost zone.
template <typename F>
auto rank_neighbors(const DomainDecomposition& dec, const F& in, int rank) {
  return detail::stencil_neighbors(dec, [f = &in, rank](long i) {
    return f->site_or_ghost(rank, i);
  });
}

}  // namespace

template <typename T>
void DistributedCoarseOp<T>::apply(DistributedSpinor<T>& out,
                                   DistributedSpinor<T>& in,
                                   const CoarseKernelConfig& config,
                                   CommStats* stats, HaloMode mode) const {
  check_field(out, "apply");
  check_field(in, "apply");
  // Rows of every rank over `sites` (all local sites when null).
  auto rows = [&](const std::vector<long>* sites) {
    for (int r = 0; r < dec_->nranks(); ++r) {
      ColorSpinorField<T>& dst = out.local(r);
      const auto nbrs = rank_neighbors(*dec_, in, r);
      stencil_[static_cast<size_t>(r)].visit([&](const auto& st) {
        auto body = [&](long site) {
          detail::coarse_apply_rows(st, nbrs, site, 0, n_,
                                    dst.site_data(site), config);
        };
        if (sites)
          parallel_for_indices(*sites, body);
        else
          parallel_for(dec_->local_volume(), body);
      });
    }
  };
  if (mode == HaloMode::Sync) {
    in.exchange_halos(stats);
    rows(nullptr);
    return;
  }
  // Two-phase overlapped apply: interior launch races the persistent comm
  // worker, boundary launch follows the ghost landing (run_overlapped in
  // dist_spinor.h is the shared protocol).
  run_overlapped(in, stats, [&] { rows(&dec_->interior_sites()); },
                 [&] { rows(&dec_->boundary_sites()); });
}

template <typename T>
void DistributedCoarseOp<T>::apply_block(DistributedBlockSpinor<T>& out,
                                         DistributedBlockSpinor<T>& in,
                                         const CoarseKernelConfig& config,
                                         CommStats* stats, HaloMode mode,
                                         const LaunchPolicy& policy) const {
  check_field(out, "apply_block");
  check_field(in, "apply_block");
  if (out.nrhs() != in.nrhs())
    throw std::invalid_argument("dist coarse apply_block: rhs count mismatch");
  const long nrhs = in.nrhs();
  // Rhs tiles of every rank over `sites` (all local sites when null), at
  // the rhs lane width of T like the replicated batched apply.
  auto rows = [&](const std::vector<long>* sites) {
    for (int r = 0; r < dec_->nranks(); ++r) {
      BlockSpinor<T>& dst = out.local(r);
      const auto nbrs = rank_neighbors(*dec_, in, r);
      stencil_[static_cast<size_t>(r)].visit([&](const auto& st) {
        detail::with_rhs_lanes<T>(policy, nrhs, [&](auto wc,
                                                     const LaunchPolicy& p) {
          constexpr int W = decltype(wc)::value;
          auto body = [&](long site, long k0, long k1) {
            detail::coarse_apply_rhs_tile<W, T, T>(st, nbrs, site, k0, k1,
                                                   nrhs, dst.site_data(site),
                                                   config);
          };
          if (sites)
            parallel_for_2d_indices_tiled(*sites, nrhs, p, body);
          else
            parallel_for_2d_tiled(dec_->local_volume(), nrhs, p, body);
        });
      });
    }
  };
  if (mode == HaloMode::Sync) {
    in.exchange_halos(stats, policy);
    rows(nullptr);
    return;
  }
  run_overlapped(in, stats, [&] { rows(&dec_->interior_sites()); },
                 [&] { rows(&dec_->boundary_sites()); });
}

// --- distributed even-odd (Schur) kernels -----------------------------------

template <typename T>
void DistributedCoarseOp<T>::apply_hopping_parity_block(
    DistributedBlockSpinor<T>& out, DistributedBlockSpinor<T>& in,
    int out_parity, CommStats* stats, HaloMode mode,
    const LaunchPolicy& policy) const {
  check_field(out, "hopping_parity_block");
  check_field(in, "hopping_parity_block");
  if (out.nrhs() != in.nrhs())
    throw std::invalid_argument("dist hopping_parity_block: shape mismatch");
  if (n_ > CoarseDirac<T>::kMaxBlockDim)
    throw std::invalid_argument("dist hopping kernel: N exceeds buffer cap");
  const long nrhs = in.nrhs();
  auto phase = [&](const std::vector<std::array<std::vector<long>, 2>>&
                       lists) {
    for (int r = 0; r < dec_->nranks(); ++r) {
      BlockSpinor<T>& dst = out.local(r);
      const auto nbrs = rank_neighbors(*dec_, in, r);
      stencil_[static_cast<size_t>(r)].visit([&](const auto& st) {
        parallel_for_2d_indices_tiled(
            lists[static_cast<size_t>(r)][static_cast<size_t>(out_parity)],
            nrhs, policy, [&](long site, long k0, long k1) {
              for (long k = k0; k < k1; ++k)
                detail::coarse_hop_rows(st, nbrs, site, k, nrhs,
                                        dst.site_data(site));
            });
      });
    }
  };
  if (mode == HaloMode::Sync) {
    in.exchange_halos(stats, policy);
    phase(parity_all_);
    return;
  }
  run_overlapped(in, stats, [&] { phase(parity_interior_); },
                 [&] { phase(parity_boundary_); });
}

namespace {

/// out = D in per (site, rhs) over one rank's site list, D the diagonal or
/// its inverse as seen through the row view `st`.
template <typename T, typename St>
void diag_sites(const St& st, const std::vector<long>& sites,
                BlockSpinor<T>& out, const BlockSpinor<T>& in,
                const LaunchPolicy& policy) {
  const long nrhs = in.nrhs();
  parallel_for_2d_indices_tiled(
      sites, nrhs, policy, [&](long site, long k0, long k1) {
        for (long k = k0; k < k1; ++k)
          detail::coarse_diag_rows(st, site, in.site_data(site), k, nrhs,
                                   out.site_data(site));
      });
}

}  // namespace

template <typename T>
void DistributedCoarseOp<T>::apply_diag_block(
    DistributedBlockSpinor<T>& out, const DistributedBlockSpinor<T>& in,
    int parity, const LaunchPolicy& policy) const {
  check_field(out, "apply_diag_block");
  check_field(in, "apply_diag_block");
  if (out.nrhs() != in.nrhs() || n_ > CoarseDirac<T>::kMaxBlockDim)
    throw std::invalid_argument("dist apply_diag_block: bad shape");
  for (int r = 0; r < dec_->nranks(); ++r)
    stencil_[static_cast<size_t>(r)].visit([&](const auto& st) {
      diag_sites(st, parity_sites(r, parity), out.local(r), in.local(r),
                 policy);
    });
}

template <typename T>
void DistributedCoarseOp<T>::apply_diag_inverse_block(
    DistributedBlockSpinor<T>& out, const DistributedBlockSpinor<T>& in,
    int parity, const LaunchPolicy& policy) const {
  check_field(out, "apply_diag_inverse_block");
  check_field(in, "apply_diag_inverse_block");
  if (out.nrhs() != in.nrhs() || n_ > CoarseDirac<T>::kMaxBlockDim)
    throw std::invalid_argument("dist apply_diag_inverse_block: bad shape");
  for (int r = 0; r < dec_->nranks(); ++r)
    stencil_[static_cast<size_t>(r)].visit_inverse([&](const auto& st) {
      diag_sites(st, parity_sites(r, parity), out.local(r), in.local(r),
                 policy);
    });
}

template <typename T>
void DistributedCoarseOp<T>::sub_parity_block(
    DistributedBlockSpinor<T>& y, const DistributedBlockSpinor<T>& x,
    int parity, const LaunchPolicy& policy) const {
  if (y.nrhs() != x.nrhs())
    throw std::invalid_argument("dist sub_parity_block: rhs count mismatch");
  const long slot = static_cast<long>(y.site_dof()) * y.nrhs();
  for (int r = 0; r < dec_->nranks(); ++r) {
    BlockSpinor<T>& yl = y.local(r);
    const BlockSpinor<T>& xl = x.local(r);
    parallel_for_indices(
        parity_all_[static_cast<size_t>(r)][static_cast<size_t>(parity)],
        policy, [&](long site) {
          Complex<T>* yp = yl.site_data(site);
          const Complex<T>* xp = xl.site_data(site);
          for (long i = 0; i < slot; ++i) yp[i] -= xp[i];
        });
  }
}

// --- DistributedBlockCoarseOp ------------------------------------------------

template <typename T>
void DistributedBlockCoarseOp<T>::apply(Field& out, const Field& in) const {
  this->count_apply();
  global_.count_apply();  // keep per-level workload traces accurate
  if (!sin_) {
    sin_ = std::make_unique<DistributedSpinor<T>>(dist_.create_vector());
    sin_->set_wire_precision(wire_);
    sout_ = std::make_unique<DistributedSpinor<T>>(dist_.create_vector());
  }
  sin_->scatter(in);
  dist_.apply(*sout_, *sin_, global_.kernel_config(), &stats_, mode_);
  sout_->gather(out);
}

template <typename T>
void DistributedBlockCoarseOp<T>::apply_block(BlockField& out,
                                              const BlockField& in) const {
  for (int k = 0; k < in.nrhs(); ++k) {
    this->count_apply();
    global_.count_apply();
  }
  if (!bin_ || bin_->nrhs() != in.nrhs()) {
    bin_ = std::make_unique<DistributedBlockSpinor<T>>(
        dist_.create_block(in.nrhs()));
    bin_->set_wire_precision(wire_);
    bout_ = std::make_unique<DistributedBlockSpinor<T>>(
        dist_.create_block(in.nrhs()));
  }
  bin_->scatter(in);
  dist_.apply_block(*bout_, *bin_, global_.kernel_config(), &stats_, mode_);
  bout_->gather(out);
}

template <typename T>
void DistributedBlockCoarseOp<T>::apply_dagger(Field& out,
                                               const Field& in) const {
  // Coarse gamma5-Hermiticity, exactly CoarseDirac::apply_dagger's sandwich.
  if (!dagger_tmp_) dagger_tmp_.emplace(create_vector());
  apply_gamma5(*dagger_tmp_, in);
  apply(out, *dagger_tmp_);
  apply_gamma5(out, out);
}

// --- DistributedSchurCoarseOp ------------------------------------------------

template <typename T>
void DistributedSchurCoarseOp<T>::ensure_staging(int nrhs) const {
  if (full_ && full_->nrhs() == nrhs) return;
  const auto& geom = dist_.decomposition()->global();
  full_ = std::make_unique<BlockField>(geom, CoarseDirac<T>::kNSpin,
                                       dist_.ncolor(), nrhs);
  din_ = std::make_unique<DistributedBlockSpinor<T>>(dist_.create_block(nrhs));
  din_->set_wire_precision(wire_);
  dodd_ =
      std::make_unique<DistributedBlockSpinor<T>>(dist_.create_block(nrhs));
  dodd2_ =
      std::make_unique<DistributedBlockSpinor<T>>(dist_.create_block(nrhs));
  dodd2_->set_wire_precision(wire_);
  deven_ =
      std::make_unique<DistributedBlockSpinor<T>>(dist_.create_block(nrhs));
  dout_ =
      std::make_unique<DistributedBlockSpinor<T>>(dist_.create_block(nrhs));
}

template <typename T>
void DistributedSchurCoarseOp<T>::apply_block(BlockField& out,
                                              const BlockField& in) const {
  const int nrhs = in.nrhs();
  for (int k = 0; k < nrhs; ++k) {
    this->count_apply();
    schur_.coarse_op().count_apply();  // one Schur apply = one coarse apply
  }
  ensure_staging(nrhs);
  // S in = X_ee in - Y_eo X_oo^{-1} Y_oe in, every stage distributed: the
  // two hops each run one batched (optionally overlapped) halo exchange —
  // the nested-apply structure of an even-odd coarsest solve.  The even
  // input embedding leaves odd sites of full_ zero; each parity kernel
  // writes only its own parity, so the staging fields compose exactly like
  // SchurCoarseOp::apply_block's parity-subset temporaries.
  insert_parity_block(*full_, in, /*parity=*/0);
  din_->scatter(*full_);
  dist_.apply_hopping_parity_block(*dodd_, *din_, /*out_parity=*/1, &stats_,
                                   mode_);
  dist_.apply_diag_inverse_block(*dodd2_, *dodd_, /*parity=*/1);
  dist_.apply_hopping_parity_block(*deven_, *dodd2_, /*out_parity=*/0,
                                   &stats_, mode_);
  dist_.apply_diag_block(*dout_, *din_, /*parity=*/0);
  dist_.sub_parity_block(*dout_, *deven_, /*parity=*/0);
  dout_->gather(*full_);
  extract_parity_block(out, *full_, /*parity=*/0);
  // Restore the invariant that odd sites of full_ are zero for the next
  // embedding (gather wrote X_oo^{-1}-path zeros there anyway: dout_'s odd
  // sites are never written, and its fields start zeroed).
}

template <typename T>
void DistributedSchurCoarseOp<T>::apply(Field& out, const Field& in) const {
  // Single-rhs applies ride the batched path as a 1-rhs block (the
  // distributed Schur is only on the hot path of block cycles; per-rhs
  // bit-identity of the batched kernels makes this exact).
  BlockField bin(in.geometry(), in.nspin(), in.ncolor(), 1, in.subset());
  bin.insert_rhs(in, 0);
  BlockField bout = bin.similar();
  apply_block(bout, bin);
  bout.extract_rhs(out, 0);
}

template <typename T>
void DistributedSchurCoarseOp<T>::apply_dagger(Field& out,
                                               const Field& in) const {
  if (!dagger_tmp_) dagger_tmp_.emplace(create_vector());
  apply_gamma5(*dagger_tmp_, in);
  apply(out, *dagger_tmp_);
  apply_gamma5(out, out);
}

template class DistributedCoarseOp<double>;
template class DistributedCoarseOp<float>;
template class DistributedBlockCoarseOp<double>;
template class DistributedBlockCoarseOp<float>;
template class DistributedSchurCoarseOp<double>;
template class DistributedSchurCoarseOp<float>;

}  // namespace qmg

#include "mg/transfer.h"

#include <cassert>
#include <cmath>
#include <stdexcept>

#include "parallel/dispatch.h"

namespace qmg {

template <typename T>
Transfer<T>::Transfer(std::shared_ptr<const BlockMap> map, int fine_nspin,
                      int fine_ncolor, int nvec)
    : map_(std::move(map)),
      fine_nspin_(fine_nspin),
      fine_ncolor_(fine_ncolor),
      nvec_(nvec) {
  if (fine_nspin_ % 2 != 0)
    throw std::invalid_argument("fine nspin must be even for chirality split");
}

template <typename T>
void Transfer<T>::set_null_vectors(const std::vector<Field>& vecs) {
  if (static_cast<int>(vecs.size()) != nvec_)
    throw std::invalid_argument("wrong number of null vectors");
  for (const auto& v : vecs) {
    if (v.nspin() != fine_nspin_ || v.ncolor() != fine_ncolor_ ||
        v.geometry() != map_->fine())
      throw std::invalid_argument("null vector has wrong shape");
  }
  vecs_ = vecs;
  block_orthonormalize();
}

template <typename T>
void Transfer<T>::block_orthonormalize() {
  const long n_blocks = map_->coarse()->volume();
  const int half_spin = fine_nspin_ / 2;

  // Two passes of modified Gram-Schmidt per aggregate: numerically robust
  // local QR (paper section 3.4, step 3).  One dispatch item per aggregate
  // ("thread block"); aggregates are disjoint site sets, so items never
  // alias.
  parallel_for(n_blocks, [&](long b) {
    const auto& sites = map_->block_sites(b);
    for (int ch = 0; ch < 2; ++ch) {
      const int s0 = ch * half_spin;
      for (int k = 0; k < nvec_; ++k) {
        for (int pass = 0; pass < 2; ++pass) {
          for (int j = 0; j < k; ++j) {
            // proj = <v_j, v_k> over the aggregate.
            Complex<T> proj{};
            for (const long x : sites)
              for (int s = s0; s < s0 + half_spin; ++s)
                for (int c = 0; c < fine_ncolor_; ++c)
                  proj += conj_mul(vecs_[j](x, s, c), vecs_[k](x, s, c));
            for (const long x : sites)
              for (int s = s0; s < s0 + half_spin; ++s)
                for (int c = 0; c < fine_ncolor_; ++c)
                  vecs_[k](x, s, c) -= proj * vecs_[j](x, s, c);
          }
        }
        T nrm2{};
        for (const long x : sites)
          for (int s = s0; s < s0 + half_spin; ++s)
            for (int c = 0; c < fine_ncolor_; ++c)
              nrm2 += norm2(vecs_[k](x, s, c));
        if (nrm2 <= T(0))
          throw std::runtime_error(
              "aggregate became rank deficient during orthonormalization");
        const T inv = T(1) / std::sqrt(nrm2);
        for (const long x : sites)
          for (int s = s0; s < s0 + half_spin; ++s)
            for (int c = 0; c < fine_ncolor_; ++c) vecs_[k](x, s, c) *= inv;
      }
    }
  });
}

template <typename T>
void Transfer<T>::prolongate(Field& fine, const Field& coarse) const {
  assert(fine.nspin() == fine_nspin_ && fine.ncolor() == fine_ncolor_);
  assert(coarse.nspin() == 2 && coarse.ncolor() == nvec_);
  const long vf = map_->fine()->volume();
  const int half_spin = fine_nspin_ / 2;
  // Gather: one independent dispatch item per fine-grid site.
  parallel_for(vf, [&](long x) {
    const long b = map_->coarse_site(x);
    for (int s = 0; s < fine_nspin_; ++s) {
      const int ch = s / half_spin;
      for (int c = 0; c < fine_ncolor_; ++c) {
        Complex<T> acc{};
        for (int k = 0; k < nvec_; ++k)
          acc += vecs_[k](x, s, c) * coarse(b, ch, k);
        fine(x, s, c) = acc;
      }
    }
  });
}

template <typename T>
void Transfer<T>::restrict_to_coarse(Field& coarse, const Field& fine) const {
  assert(fine.nspin() == fine_nspin_ && fine.ncolor() == fine_ncolor_);
  assert(coarse.nspin() == 2 && coarse.ncolor() == nvec_);
  const long n_blocks = map_->coarse()->volume();
  const int half_spin = fine_nspin_ / 2;
  // One aggregate per dispatch item; local reduction replaces the scatter
  // (no atomics needed), matching the GPU kernel of section 6.6.
  parallel_for(n_blocks, [&](long b) {
    const auto& sites = map_->block_sites(b);
    for (int ch = 0; ch < 2; ++ch) {
      const int s0 = ch * half_spin;
      for (int k = 0; k < nvec_; ++k) {
        Complex<T> acc{};
        for (const long x : sites)
          for (int s = s0; s < s0 + half_spin; ++s)
            for (int c = 0; c < fine_ncolor_; ++c)
              acc += conj_mul(vecs_[k](x, s, c), fine(x, s, c));
        coarse(b, ch, k) = acc;
      }
    }
  });
}

template <typename T>
void Transfer<T>::prolongate(BlockField& fine, const BlockField& coarse) const {
  if (fine.nspin() != fine_nspin_ || fine.ncolor() != fine_ncolor_ ||
      coarse.nspin() != 2 || coarse.ncolor() != nvec_ ||
      fine.nrhs() != coarse.nrhs())
    throw std::invalid_argument("block prolongate: shape mismatch");
  const long vf = map_->fine()->volume();
  const int half_spin = fine_nspin_ / 2;
  const int nrhs = fine.nrhs();
  const LaunchPolicy policy = default_policy();
  // Gather per (fine site, rhs); the per-rhs accumulation order is exactly
  // the single-rhs kernel's, so results are bit-identical per rhs.  The
  // width path packs W consecutive rhs per lane group (both block fields
  // are rhs-contiguous, so loads/stores are one deinterleave per dof) and
  // runs the nrhs % W tail through the scalar body.
  auto scalar_site = [&](long x, int rhs) {
    const long b = map_->coarse_site(x);
    for (int s = 0; s < fine_nspin_; ++s) {
      const int ch = s / half_spin;
      for (int c = 0; c < fine_ncolor_; ++c) {
        Complex<T> acc{};
        for (int k = 0; k < nvec_; ++k)
          acc += vecs_[k](x, s, c) * coarse(b, ch, k, rhs);
        fine(x, s, c, rhs) = acc;
      }
    }
  };
  const int w = rhs_lane_width<T>(policy, nrhs);
  if (w > 1) {
    simd::dispatch_width(w, [&](auto wc) {
      constexpr int W = decltype(wc)::value;
      using V = simd::cpack<T, W>;
      const int ngroups = nrhs / W;
      LaunchPolicy p = align_rhs_block(policy, W);
      if (p.rhs_block > 0) p.rhs_block /= W;
      parallel_for_2d(vf, ngroups, p, [&](long x, long g) {
        const int k0 = static_cast<int>(g) * W;
        const long b = map_->coarse_site(x);
        for (int s = 0; s < fine_nspin_; ++s) {
          const int ch = s / half_spin;
          for (int c = 0; c < fine_ncolor_; ++c) {
            V acc{};
            for (int k = 0; k < nvec_; ++k)
              acc += vecs_[k](x, s, c) * V::load(&coarse(b, ch, k, k0));
            acc.store(&fine(x, s, c, k0));
          }
        }
      });
      const int ktail = ngroups * W;
      if (ktail < nrhs)
        parallel_for_2d(vf, nrhs - ktail, policy, [&](long x, long kk) {
          scalar_site(x, ktail + static_cast<int>(kk));
        });
    });
    return;
  }
  parallel_for_2d(vf, nrhs, policy, [&](long x, long kk) {
    scalar_site(x, static_cast<int>(kk));
  });
}

template <typename T>
void Transfer<T>::restrict_to_coarse(BlockField& coarse,
                                     const BlockField& fine) const {
  if (fine.nspin() != fine_nspin_ || fine.ncolor() != fine_ncolor_ ||
      coarse.nspin() != 2 || coarse.ncolor() != nvec_ ||
      fine.nrhs() != coarse.nrhs())
    throw std::invalid_argument("block restrict: shape mismatch");
  const long n_blocks = map_->coarse()->volume();
  const int half_spin = fine_nspin_ / 2;
  const int nrhs = fine.nrhs();
  const LaunchPolicy policy = default_policy();
  // One (aggregate, rhs) pair per dispatch item; the aggregate's null-vector
  // data is reused across consecutive rhs of its tile.  The width path
  // reduces W rhs lanes at once — the per-lane accumulation walks the
  // aggregate in exactly the scalar order, so per-rhs coarse values are
  // bit-identical; the nrhs % W tail runs the scalar body.
  auto scalar_site = [&](long b, int rhs) {
    const auto& sites = map_->block_sites(b);
    for (int ch = 0; ch < 2; ++ch) {
      const int s0 = ch * half_spin;
      for (int k = 0; k < nvec_; ++k) {
        Complex<T> acc{};
        for (const long x : sites)
          for (int s = s0; s < s0 + half_spin; ++s)
            for (int c = 0; c < fine_ncolor_; ++c)
              acc += conj_mul(vecs_[k](x, s, c), fine(x, s, c, rhs));
        coarse(b, ch, k, rhs) = acc;
      }
    }
  };
  const int w = rhs_lane_width<T>(policy, nrhs);
  if (w > 1) {
    simd::dispatch_width(w, [&](auto wc) {
      constexpr int W = decltype(wc)::value;
      using V = simd::cpack<T, W>;
      const int ngroups = nrhs / W;
      LaunchPolicy p = align_rhs_block(policy, W);
      if (p.rhs_block > 0) p.rhs_block /= W;
      parallel_for_2d(n_blocks, ngroups, p, [&](long b, long g) {
        const int k0 = static_cast<int>(g) * W;
        const auto& sites = map_->block_sites(b);
        for (int ch = 0; ch < 2; ++ch) {
          const int s0 = ch * half_spin;
          for (int k = 0; k < nvec_; ++k) {
            V acc{};
            for (const long x : sites)
              for (int s = s0; s < s0 + half_spin; ++s)
                for (int c = 0; c < fine_ncolor_; ++c)
                  acc += simd::conj_mul(vecs_[k](x, s, c),
                                        V::load(&fine(x, s, c, k0)));
            acc.store(&coarse(b, ch, k, k0));
          }
        }
      });
      const int ktail = ngroups * W;
      if (ktail < nrhs)
        parallel_for_2d(n_blocks, nrhs - ktail, policy, [&](long b, long kk) {
          scalar_site(b, ktail + static_cast<int>(kk));
        });
    });
    return;
  }
  parallel_for_2d(n_blocks, nrhs, policy, [&](long b, long kk) {
    scalar_site(b, static_cast<int>(kk));
  });
}

template class Transfer<double>;
template class Transfer<float>;

}  // namespace qmg

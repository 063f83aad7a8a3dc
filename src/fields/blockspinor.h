#pragma once
// Block spinor: N right-hand sides stored as ONE field with an
// rhs-contiguous site layout (paper section 9's multiple-right-hand-side
// reformulation, made first-class).
//
// Layout: index = (site * site_dof + d) * nrhs + k — "SoA over rhs".  For a
// fixed (site, spin, color) the N rhs values are adjacent in memory, so a
// kernel that loads a stencil matrix once and streams all N vectors through
// it walks unit-stride over the rhs axis (the vectorizable/coalesced axis),
// while the per-site blocks of a single rhs stay a fixed stride apart.
// This is the storage the 2D (site x rhs) dispatch index space
// (parallel/dispatch.h) iterates.
//
// A BlockSpinor is convertible to and from a std::vector of ordinary
// ColorSpinorFields (pack/unpack are exact element copies), so batched
// kernels are bit-identical to N single-rhs applies whenever their per-rhs
// arithmetic is.

#include <algorithm>
#include <cassert>
#include <stdexcept>
#include <vector>

#include "fields/colorspinor.h"
#include "linalg/aligned.h"
#include "parallel/dispatch.h"

namespace qmg {

template <typename T>
class BlockSpinor {
 public:
  using value_type = Complex<T>;
  using Field = ColorSpinorField<T>;

  BlockSpinor() = default;

  BlockSpinor(GeometryPtr geom, int nspin, int ncolor, int nrhs,
              Subset subset = Subset::Full)
      : geom_(std::move(geom)),
        nspin_(nspin),
        ncolor_(ncolor),
        nrhs_(nrhs),
        subset_(subset) {
    if (nrhs_ <= 0) throw std::invalid_argument("block spinor needs nrhs > 0");
    nsites_ = subset == Subset::Full ? geom_->volume() : geom_->half_volume();
    data_.assign(static_cast<size_t>(nsites_) * nspin_ * ncolor_ * nrhs_,
                 value_type{});
    assert(data_.empty() || is_field_aligned(data_.data()));
  }

  /// A new zero block with the same shape as this one.
  BlockSpinor similar() const {
    return BlockSpinor(geom_, nspin_, ncolor_, nrhs_, subset_);
  }

  const GeometryPtr& geometry() const { return geom_; }
  int nspin() const { return nspin_; }
  int ncolor() const { return ncolor_; }
  int nrhs() const { return nrhs_; }
  int site_dof() const { return nspin_ * ncolor_; }
  long nsites() const { return nsites_; }
  /// Total complex elements across all rhs.
  long size() const { return static_cast<long>(data_.size()); }
  /// Complex elements of one rhs (the per-rhs reduction length).
  long rhs_size() const { return nsites_ * site_dof(); }
  Subset subset() const { return subset_; }

  size_t linear_index(long site, int s, int c, int k) const {
    return ((static_cast<size_t>(site) * nspin_ + s) * ncolor_ + c) * nrhs_ +
           k;
  }

  value_type& operator()(long site, int s, int c, int k) {
    return data_[linear_index(site, s, c, k)];
  }
  const value_type& operator()(long site, int s, int c, int k) const {
    return data_[linear_index(site, s, c, k)];
  }

  /// Contiguous per-site block of site_dof() x nrhs values, rhs innermost.
  value_type* site_data(long site) {
    return data_.data() + static_cast<size_t>(site) * site_dof() * nrhs_;
  }
  const value_type* site_data(long site) const {
    return data_.data() + static_cast<size_t>(site) * site_dof() * nrhs_;
  }

  value_type* data() { return data_.data(); }
  const value_type* data() const { return data_.data(); }

  /// Element i (flat per-rhs index over site-major dof order) of rhs k:
  /// the block analog of field.data()[i], used by the block BLAS so that
  /// per-rhs arithmetic order matches the single-field kernels exactly.
  value_type& at(long i, int k) {
    return data_[static_cast<size_t>(i) * nrhs_ + k];
  }
  const value_type& at(long i, int k) const {
    return data_[static_cast<size_t>(i) * nrhs_ + k];
  }

  /// Gather one site's dof vector of rhs k into a contiguous buffer (the
  /// per-rhs view a single-rhs kernel expects).  buf must hold site_dof()
  /// values.  Exact copies: a kernel fed gathered buffers is bit-identical
  /// to the single-field kernel.
  void gather_site_rhs(long site, int k, value_type* buf) const {
    const value_type* p = site_data(site) + k;
    const int dof = site_dof();
    for (int d = 0; d < dof; ++d) buf[d] = p[static_cast<size_t>(d) * nrhs_];
  }
  /// Scatter a contiguous per-rhs site vector back into rhs slot k.
  void scatter_site_rhs(long site, int k, const value_type* buf) {
    value_type* p = site_data(site) + k;
    const int dof = site_dof();
    for (int d = 0; d < dof; ++d) p[static_cast<size_t>(d) * nrhs_] = buf[d];
  }

  /// Copy rhs k out into an ordinary field of the same shape.
  void extract_rhs(Field& out, int k) const {
    check_rhs(k);
    check_shape(out);
    for (long i = 0; i < rhs_size(); ++i) out.data()[i] = at(i, k);
  }
  Field extract_rhs(int k) const {
    Field out(geom_, nspin_, ncolor_, subset_);
    extract_rhs(out, k);
    return out;
  }

  /// Copy an ordinary field into rhs slot k.
  void insert_rhs(const Field& in, int k) {
    check_rhs(k);
    check_shape(in);
    for (long i = 0; i < rhs_size(); ++i) at(i, k) = in.data()[i];
  }

  void check_rhs(int k) const {
    if (k < 0 || k >= nrhs_)
      throw std::invalid_argument("block spinor: rhs index out of range");
  }
  void check_shape(const Field& f) const {
    if (f.geometry() != geom_ || f.nspin() != nspin_ ||
        f.ncolor() != ncolor_ || f.subset() != subset_ ||
        f.order() != FieldOrder::SiteMajor)
      throw std::invalid_argument(
          "block spinor: field has mismatched shape/subset/order");
  }

 private:
  GeometryPtr geom_;
  int nspin_ = 0;
  int ncolor_ = 0;
  int nrhs_ = 0;
  long nsites_ = 0;
  Subset subset_ = Subset::Full;
  // Aligned so rhs-axis pack loads start on a cache-line boundary
  // (linalg/aligned.h).
  aligned_vector<value_type> data_;
};

/// Pack N same-shaped fields into one block spinor (exact copies).
template <typename T>
BlockSpinor<T> pack_block(const std::vector<ColorSpinorField<T>>& fields) {
  if (fields.empty())
    throw std::invalid_argument("pack_block: need at least one field");
  const auto& f0 = fields.front();
  BlockSpinor<T> block(f0.geometry(), f0.nspin(), f0.ncolor(),
                       static_cast<int>(fields.size()), f0.subset());
  for (int k = 0; k < block.nrhs(); ++k)
    block.insert_rhs(fields[static_cast<size_t>(k)], k);
  return block;
}

/// Unpack a block spinor back into N ordinary fields (exact copies).
template <typename T>
void unpack_block(std::vector<ColorSpinorField<T>>& fields,
                  const BlockSpinor<T>& block) {
  if (static_cast<int>(fields.size()) != block.nrhs())
    throw std::invalid_argument("unpack_block: field count != nrhs");
  for (int k = 0; k < block.nrhs(); ++k)
    block.extract_rhs(fields[static_cast<size_t>(k)], k);
}

/// Launch policy of the element passes below (parity copies, precision
/// conversion), whose dispatch items each move `item_elems` complex
/// elements: the default policy, engaging the pool only when every worker
/// gets at least ~1024 elements (the host BLAS threshold) — a smaller copy
/// costs less than waking the pool.  Every pass is pure per-element copies,
/// so results are bit-identical under any split.  Callers run on the
/// solve's calling thread, never on a comm worker (ThreadPool::run is
/// single-caller).
inline LaunchPolicy block_pass_policy(long item_elems) {
  LaunchPolicy p = default_policy();
  const long grain = (1024 + item_elems - 1) / item_elems;
  if (p.grain < grain) p.grain = grain;
  return p;
}

/// Copy the given parity's sites of a full block into a parity block
/// (block analog of extract_parity; exact element copies).
template <typename T>
void extract_parity_block(BlockSpinor<T>& out, const BlockSpinor<T>& in,
                          int parity) {
  if (in.subset() != Subset::Full ||
      out.subset() != (parity ? Subset::Odd : Subset::Even) ||
      out.nrhs() != in.nrhs() || out.site_dof() != in.site_dof())
    throw std::invalid_argument("extract_parity_block: shape mismatch");
  const auto& geom = *in.geometry();
  // A site's dof x rhs values are contiguous in both layouts.
  const long site_elems = static_cast<long>(in.site_dof()) * in.nrhs();
  parallel_for(geom.half_volume(), block_pass_policy(site_elems),
               [&](long cb) {
                 const Complex<T>* src =
                     in.site_data(geom.full_index(parity, cb));
                 std::copy(src, src + site_elems, out.site_data(cb));
               });
}

/// Scatter a parity block back into the corresponding sites of a full block.
template <typename T>
void insert_parity_block(BlockSpinor<T>& out, const BlockSpinor<T>& in,
                         int parity) {
  if (out.subset() != Subset::Full ||
      in.subset() != (parity ? Subset::Odd : Subset::Even) ||
      out.nrhs() != in.nrhs() || out.site_dof() != in.site_dof())
    throw std::invalid_argument("insert_parity_block: shape mismatch");
  const auto& geom = *out.geometry();
  const long site_elems = static_cast<long>(in.site_dof()) * in.nrhs();
  parallel_for(geom.half_volume(), block_pass_policy(site_elems),
               [&](long cb) {
                 const Complex<T>* src = in.site_data(cb);
                 std::copy(src, src + site_elems,
                           out.site_data(geom.full_index(parity, cb)));
               });
}

template <typename To, typename From>
void convert_block_into(BlockSpinor<To>& out, const BlockSpinor<From>& in) {
  if (out.size() != in.size() || out.nrhs() != in.nrhs())
    throw std::invalid_argument("convert_block_into: shape mismatch");
  const Complex<From>* src = in.data();
  Complex<To>* dst = out.data();
  parallel_for(in.size(), block_pass_policy(1), [src, dst](long i) {
    dst[i] = Complex<To>(static_cast<To>(src[i].re),
                         static_cast<To>(src[i].im));
  });
}

/// Precision conversion of a whole block (for mixed-precision block solves).
template <typename To, typename From>
BlockSpinor<To> convert_block(const BlockSpinor<From>& in) {
  BlockSpinor<To> out(in.geometry(), in.nspin(), in.ncolor(), in.nrhs(),
                      in.subset());
  convert_block_into(out, in);
  return out;
}

}  // namespace qmg

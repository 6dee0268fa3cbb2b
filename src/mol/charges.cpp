#include "mol/charges.hpp"

#include <algorithm>
#include <cmath>
#include <vector>

#include "util/error.hpp"

namespace scidock::mol {

namespace {

/// PEOE electronegativity polynomial chi(q) = a + b q + c q^2 per element.
/// Coefficients follow Gasteiger & Marsili 1980 for H/C/N/O; other elements
/// use Pauling-electronegativity-scaled approximations, which is the same
/// fallback MGLTools effectively applies for exotic atoms.
struct Peoe {
  double a, b, c;
};

Peoe peoe_params(Element e) {
  switch (e) {
    case Element::H: return {7.17, 6.24, -0.56};
    case Element::C: return {7.98, 9.18, 1.88};
    case Element::N: return {11.54, 10.82, 1.36};
    case Element::O: return {14.18, 12.92, 1.39};
    case Element::F: return {14.66, 13.85, 2.31};
    case Element::Cl: return {11.00, 9.69, 1.35};
    case Element::Br: return {10.08, 8.47, 1.16};
    case Element::I: return {9.90, 7.96, 0.96};
    case Element::S: return {10.14, 9.13, 1.38};
    case Element::P: return {8.90, 8.24, 0.96};
    default: {
      // Scale a carbon-like polynomial by the element's Pauling EN.
      const double scale = element_info(e).electronegativity / 2.55;
      return {7.98 * scale, 9.18 * scale, 1.88};
    }
  }
}

}  // namespace

void assign_gasteiger_charges(Molecule& m, const GasteigerOptions& opts) {
  m.perceive();
  const int n = m.atom_count();
  std::vector<double> q(static_cast<std::size_t>(n), 0.0);

  double damp = opts.damping;
  for (int iter = 0; iter < opts.iterations; ++iter) {
    std::vector<double> chi(static_cast<std::size_t>(n));
    for (int i = 0; i < n; ++i) {
      const Peoe p = peoe_params(m.atom(i).element);
      // The polynomial is fitted over ionic charges in [-1, +1] (chi(+1)
      // is the cation electronegativity below). An atom perceived with
      // dozens of bonds — a cluster of near-coincident atoms in a
      // receptor — can be pushed past that range in one iteration;
      // extrapolating the quadratic there feeds back into ever larger
      // transfers (charges of 1e9 e were seen). Evaluate chi on the
      // fitted range instead; atoms inside it are unaffected.
      const double qi = std::clamp(q[static_cast<std::size_t>(i)], -1.0, 1.0);
      chi[static_cast<std::size_t>(i)] = p.a + p.b * qi + p.c * qi * qi;
    }
    std::vector<double> dq(static_cast<std::size_t>(n), 0.0);
    for (const Bond& b : m.bonds()) {
      const auto ia = static_cast<std::size_t>(b.a);
      const auto ib = static_cast<std::size_t>(b.b);
      const double diff = chi[ib] - chi[ia];
      // Electrons flow towards the more electronegative partner; the
      // normaliser is the cation electronegativity chi(+1) of the donor.
      const Element donor = diff > 0 ? m.atom(b.a).element : m.atom(b.b).element;
      const Peoe dp = peoe_params(donor);
      const double chi_plus = dp.a + dp.b + dp.c;
      if (chi_plus <= 1e-9) continue;
      const double transfer = damp * diff / chi_plus;
      dq[ia] += transfer;
      dq[ib] -= transfer;
    }
    for (int i = 0; i < n; ++i) q[static_cast<std::size_t>(i)] += dq[static_cast<std::size_t>(i)];
    damp *= opts.damping;
  }

  // Re-centre so the net molecular charge is exactly zero.
  double net = 0.0;
  for (double v : q) net += v;
  const double shift = net / static_cast<double>(n);
  for (int i = 0; i < n; ++i) {
    m.mutable_atom(i).partial_charge = q[static_cast<std::size_t>(i)] - shift;
  }
  m.perceive();  // mutable_atom() invalidated the cache; typing is unchanged
}

double total_charge(const Molecule& m) {
  double net = 0.0;
  for (const Atom& a : m.atoms()) net += a.partial_charge;
  return net;
}

}  // namespace scidock::mol

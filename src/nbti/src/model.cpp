#include "nbtinoc/nbti/model.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <sstream>
#include <stdexcept>

namespace nbtinoc::nbti {

namespace {
constexpr double kBoltzmannEvPerK = 8.617333262e-5;
/// beta_t stays this far below 1, so Eq. 1 levels off as t -> infinity.
constexpr double kBetaCeilingGap = 1e-12;

/// Numerator of beta_t: 2*xi1*te + sqrt(xi2*C*(1-alpha)*Tclk).
double beta_numerator(const NbtiParams& p, double alpha, double c, const OperatingPoint& op) {
  return 2.0 * p.xi1 * p.te_nm + std::sqrt(p.xi2 * c * (1.0 - alpha) * op.clock_period_s);
}
}  // namespace

NbtiModel::NbtiModel(NbtiParams params) : params_(params) {
  if (params_.n <= 0.0 || params_.n >= 0.5)
    throw std::invalid_argument("NbtiModel: n must be in (0, 0.5)");
  if (params_.tox_nm <= 0.0 || params_.te_nm <= 0.0)
    throw std::invalid_argument("NbtiModel: oxide thickness must be positive");
  if (params_.xi1 * params_.te_nm >= params_.tox_nm + 1e-12) {
    // Guarantees beta_t >= 0 for all alpha and t >= one clock period.
    throw std::invalid_argument("NbtiModel: requires xi1*te <= tox");
  }
}

double NbtiModel::diffusivity(double temperature_k) const {
  return params_.inv_t0_nm2_per_s * std::exp(-params_.ea_ev / (kBoltzmannEvPerK * temperature_k));
}

double NbtiModel::kv(const OperatingPoint& op) const {
  const double overdrive = std::max(op.vdd_v - op.vth_v, 0.0);
  const double eox = overdrive / params_.tox_nm;  // V/nm
  return params_.kv_prefactor * overdrive * std::exp(eox / params_.e0_v_per_nm) *
         std::sqrt(diffusivity(op.temperature_k));
}

double NbtiModel::beta_t(double alpha, double seconds, const OperatingPoint& op) const {
  alpha = std::clamp(alpha, 0.0, 1.0);
  const double c = diffusivity(op.temperature_k);
  const double denominator = 2.0 * params_.tox_nm + std::sqrt(c * std::max(seconds, 0.0));
  const double beta = 1.0 - beta_numerator(params_, alpha, c, op) / denominator;
  return std::clamp(beta, 0.0, 1.0 - kBetaCeilingGap);
}

double NbtiModel::delta_vth(double alpha, double seconds, const OperatingPoint& op) const {
  alpha = std::clamp(alpha, 0.0, 1.0);
  if (alpha <= 0.0 || seconds <= 0.0) return 0.0;
  if (seconds < params_.short_time_ramp_s) {
    // Short-time regime: continue the t^n power law down from the boundary
    // where the long-term form becomes valid (see NbtiParams comment).
    const double at_boundary = delta_vth(alpha, params_.short_time_ramp_s, op);
    return at_boundary * std::pow(seconds / params_.short_time_ramp_s, params_.n);
  }
  const double beta = beta_t(alpha, seconds, op);
  const double denom = 1.0 - std::pow(beta, 1.0 / (2.0 * params_.n));
  const double k = kv(op);
  const double base = std::sqrt(k * k * op.clock_period_s * alpha) / denom;
  return std::pow(base, 2.0 * params_.n);
}

double NbtiModel::seconds_to_shift(double dvth_v, double alpha, const OperatingPoint& op) const {
  alpha = std::clamp(alpha, 0.0, 1.0);
  if (dvth_v <= 0.0) return 0.0;
  if (alpha <= 0.0) return std::numeric_limits<double>::infinity();
  const double ramp = params_.short_time_ramp_s;
  const double at_ramp = delta_vth(alpha, ramp, op);
  if (dvth_v < at_ramp) return ramp * std::pow(dvth_v / at_ramp, 1.0 / params_.n);
  // Eq. 1 read backwards: base = dVth^(1/2n) fixes beta_t^(1/2n) = 1 - gap,
  // then beta_t = 1 - numerator / (2*tox + sqrt(C*t)) fixes sqrt(C*t).
  const double k = kv(op);
  const double gap = std::sqrt(k * k * op.clock_period_s * alpha) /
                     std::pow(dvth_v, 1.0 / (2.0 * params_.n));
  // At or below the beta_t = 0 floor: reached once the long-term form holds.
  if (gap >= 1.0) return ramp;
  // 1 - beta_t = 1 - (1 - gap)^(2n), without cancellation at small gaps.
  const double one_minus_beta = -std::expm1(2.0 * params_.n * std::log1p(-gap));
  if (one_minus_beta <= kBetaCeilingGap) return std::numeric_limits<double>::infinity();
  const double c = diffusivity(op.temperature_k);
  const double root =
      std::max(beta_numerator(params_, alpha, c, op) / one_minus_beta - 2.0 * params_.tox_nm, 0.0);
  return std::max(root * root / c, ramp);
}

double NbtiModel::vth_saving(double alpha, double alpha_ref, double seconds,
                             const OperatingPoint& op) const {
  const double ref = delta_vth(alpha_ref, seconds, op);
  if (ref <= 0.0) return 0.0;
  return 1.0 - delta_vth(alpha, seconds, op) / ref;
}

NbtiModel NbtiModel::calibrated(NbtiParams params, const OperatingPoint& op) {
  // dVth scales as kv_prefactor^(2n); solve for the prefactor that lands on
  // the anchor exactly instead of iterating.
  params.kv_prefactor = 1.0;
  NbtiModel unit(params);
  const double seconds = params.anchor_years * 365.25 * 24.0 * 3600.0;
  const double unit_dvth = unit.delta_vth(1.0, seconds, op);
  if (unit_dvth <= 0.0) throw std::invalid_argument("NbtiModel::calibrated: degenerate anchor");
  const double ratio = params.anchor_dvth_v / unit_dvth;
  params.kv_prefactor = std::pow(ratio, 1.0 / (2.0 * params.n));
  return NbtiModel(params);
}

std::string NbtiModel::describe() const {
  std::ostringstream os;
  os << "NBTI long-term model (Eq.1): n=" << params_.n << ", tox=" << params_.tox_nm
     << "nm, Ea=" << params_.ea_ev << "eV, E0=" << params_.e0_v_per_nm
     << "V/nm, kv_prefactor=" << params_.kv_prefactor << " (anchor " << params_.anchor_dvth_v * 1e3
     << "mV @ " << params_.anchor_years << "y, alpha=1)";
  return os.str();
}

}  // namespace nbtinoc::nbti

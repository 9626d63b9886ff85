#pragma once
// Long-term NBTI threshold-voltage shift model (paper Eq. 1).
//
// The paper adopts the reaction-diffusion long-term closed form from
// Bhardwaj et al. (CICC'06), as packaged by Chan et al. (DATE'11):
//
//     |dVth| = ( sqrt(Kv^2 * Tclk * alpha) / (1 - beta_t^(1/2n)) )^(2n)
//
// with n = 1/6 (H2 diffusion, Krishnan et al. IEDM'05), alpha the NBTI duty
// cycle (stress probability), Tclk the clock period, and
//
//     beta_t = 1 - (2*xi1*te + sqrt(xi2*C*(1-alpha)*Tclk))
//                  / (2*tox + sqrt(C*t))
//     C      = (1/T0) * exp(-Ea / (k*T))
//
// Units here: lengths in nm, time in seconds, voltages in volts, C in
// nm^2/s. Kv lumps the oxide-field and hole-density prefactors; we keep its
// qualitative dependencies explicit —
//
//     Kv = kv_prefactor * (Vdd - Vth) * exp(Eox/E0) * sqrt(C(T)),
//     Eox = (Vdd - Vth)/tox
//
// — and calibrate kv_prefactor against the published anchor that a PMOS
// stressed continuously (alpha = 1) at Vdd = 1.2 V shifts by ~50 mV over 10
// years [2][3]. Absolute magnitudes therefore track the literature while
// relative savings (the quantity the paper reports) depend only on the
// closed form's alpha/t dependence, which is implemented exactly.

#include <string>

namespace nbtinoc::nbti {

/// Physical parameters of the long-term model. Defaults follow the
/// predictive-model literature (Vattikonda/Wang/Bhardwaj) at a 45 nm node.
struct NbtiParams {
  double n = 1.0 / 6.0;    ///< diffusion exponent (H2)
  double tox_nm = 1.2;     ///< effective oxide thickness
  double te_nm = 1.2;      ///< equivalent thickness in the recovery term
  double xi1 = 0.9;        ///< back-diffusion fit constant
  double xi2 = 0.5;        ///< back-diffusion fit constant
  double ea_ev = 0.49;     ///< diffusion activation energy
  double inv_t0_nm2_per_s = 1e8;  ///< 1/T0 in the Arrhenius diffusivity
  double e0_v_per_nm = 0.2;       ///< field prefactor (2.0 MV/cm)
  double kv_prefactor = 2.3e-6;   ///< lumped Kv prefactor (see calibrate())
  double anchor_dvth_v = 0.050;   ///< calibration anchor: dVth at alpha=1
  double anchor_years = 10.0;     ///< ... after this many years

  /// The closed form is the long-time asymptote of the reaction-diffusion
  /// solution and has a spurious nonzero floor as t -> 0. Below this time
  /// the model follows the RD fractional power law dVth ~ t^n instead,
  /// matched continuously at the boundary, so microsecond-scale simulations
  /// report (correctly) negligible shift.
  double short_time_ramp_s = 3600.0;
};

/// Operating point at which degradation is evaluated.
struct OperatingPoint {
  double vdd_v = 1.2;
  double vth_v = 0.180;          ///< device threshold entering the Eox term
  double temperature_k = 350.0;
  double clock_period_s = 1e-9;
};

/// Evaluates the long-term closed form. Immutable after construction;
/// cheap enough to call per-buffer at stat-sampling time.
class NbtiModel {
 public:
  explicit NbtiModel(NbtiParams params = {});

  /// Builds a model whose kv_prefactor reproduces params.anchor_dvth_v at
  /// alpha = 1 after params.anchor_years at the given operating point.
  static NbtiModel calibrated(NbtiParams params, const OperatingPoint& op);

  /// |dVth| in volts for stress probability `alpha` in [0,1] after
  /// `seconds` of operation. Returns 0 for alpha <= 0 or seconds <= 0.
  double delta_vth(double alpha, double seconds, const OperatingPoint& op) const;

  /// Inverse of delta_vth in t: the first time at which duty `alpha` has
  /// shifted Vth by `dvth_v`, in closed form on both branches (the
  /// short-time ramp and Eq. 1). Returns 0 for dvth_v <= 0, and +infinity
  /// for a shift never reached: alpha <= 0, or a shift at or beyond the
  /// t -> infinity asymptote that beta_t's clamp sets.
  double seconds_to_shift(double dvth_v, double alpha, const OperatingPoint& op) const;

  /// Arrhenius diffusivity C(T) in nm^2/s.
  double diffusivity(double temperature_k) const;

  /// beta_t term of Eq. 1, clamped to [0, 1).
  double beta_t(double alpha, double seconds, const OperatingPoint& op) const;

  /// Lumped Kv (see header comment).
  double kv(const OperatingPoint& op) const;

  /// Fractional saving 1 - dVth(alpha)/dVth(alpha_ref): the paper's "net
  /// NBTI Vth saving" when alpha_ref = 1 (non-NBTI-aware baseline).
  double vth_saving(double alpha, double alpha_ref, double seconds, const OperatingPoint& op) const;

  const NbtiParams& params() const { return params_; }

  std::string describe() const;

 private:
  NbtiParams params_;
};

}  // namespace nbtinoc::nbti

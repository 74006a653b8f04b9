"""Mutation gate: each catalogued one-line mutant of ``src/`` must fail the test that pins its rule.

    python tests/mutants.py [NAME ...]

For each mutant in ``CATALOGUE`` (or each one named), the script copies the repository, without ``.git``
and caches, into a temporary directory, replaces the mutant's old text in its file by its new text (the old
text must occur exactly once), and runs the mutant's pin there alone: the one test that states the rule it
breaks.  A mutant is killed only when its pin fails, so a test that fails by accident (one that reads a
constant, say) gets no credit.  An entry that the catalogue lists as equivalent has no pin and runs the whole
of Tier-1 with ``-x`` instead.  First the copy's tests must import the copy's ``src``, every pin must exist and
pass on the unmutated copy, and, where an equivalent is chosen, Tier-1 must pass there too.  The script prints
each mutant as killed or survived with its time and the job's total time, and exits 1 when a pin passes on its
mutant, or 2 when the catalogue no longer matches the source or the tests, or the unmutated copy fails.  A pin
costs a few seconds and an equivalent a Tier-1 run (about 15 s), so the script is not part of Tier-1.  It uses
only the standard library.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parents[1]
PYTEST = [sys.executable, "-X", "dev", "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider"]
TIER1 = PYTEST + ["--continue-on-collection-errors"]
IGNORED = shutil.ignore_patterns(".git", "__pycache__", ".pytest_cache", ".hypothesis", "*.egg-info")


class Mutant(NamedTuple):
    """One edit of one file: ``old`` replaced by ``new``, and the rule of the README or ROADMAP that it breaks.
    ``pin`` is the node id, under ``tests/``, of the test that states that rule and must fail on the mutant;
    ``equivalent`` gives instead the reason why no test can kill it, for a mutant expected to survive."""

    name: str
    path: str
    old: str
    new: str
    rule: str
    pin: str | None = None
    equivalent: str | None = None


LINALG, RELATIONS, SATURATION = "src/qubounds/linalg.py", "src/qubounds/relations.py", "src/qubounds/saturation.py"
STATES, SAMPLING, REPORTING = "src/qubounds/states.py", "src/qubounds/sampling.py", "src/qubounds/reporting.py"
CLI = "src/qubounds/cli.py"

# Why a norm or trace check's `>` may read `>=`: near 1, x - 1.0 is exact, so |x - 1| is a multiple of 2^-53,
# and INPUT_TOL (the double nearest 1e-10) is not; the nearest such multiples are 9.99998e-11 and 1.0000001e-10.
NO_DOUBLE_AT_THE_BUDGET = ("no double x gives |x - 1| = INPUT_TOL: near 1, x - 1.0 is exact and a multiple of 2^-53, "
                           "and 1e-10 is not (the nearest give 9.99998e-11 and 1.0000001e-10)")

READ_ONLY_PIN = "test_states.py::test_every_array_an_input_holds_is_read_only_on_every_build_path"

CATALOGUE = (
    Mutant("decide-flag-strict", RELATIONS,
           "bool(zero or slack <= tol.eps * scale)", "bool(zero or slack < tol.eps * scale)",
           "a bound is saturated at slack <= eps * scale, so a zero slack at eps = 0 is saturated",
           "test_relations.py::test_a_zero_slack_is_saturated_at_a_zero_tolerance"),
    Mutant("mp3-zero-rule-any", RELATIONS,
           "return _decide(\"mp3\", lhs, rhs, lhs, m.tol, all(m.zero),",
           "return _decide(\"mp3\", lhs, rhs, lhs, m.tol, any(m.zero),",
           "a sum bound is saturated by the zero rule only when both deviations are zero",
           "test_relations.py::test_a_sum_bound_with_one_zero_deviation_is_decided_by_its_slack"),
    Mutant("case2-floor-one-deviation", SATURATION,
           "tol.eps * (m.dev_a + m.dev_b), np.conjugate", "tol.eps * m.dev_a, np.conjugate",
           "the case-2 tail is degenerate at or below eps (dev(A) + dev(B)), the scale of its rounding",
           "test_saturation.py::test_construct_case2_degeneracy_floor_counts_both_deviations"),
    Mutant("mu-tie-budget-x2", RELATIONS,
           "abs(comm) <= m.tol.eps * 2.0 * m.dev_a * m.dev_b", "abs(comm) <= m.tol.eps * 4.0 * m.dev_a * m.dev_b",
           "a mu tie is |<[A, B]>| <= eps 2 dev(A) dev(B), relative as |<[A, B]>| <= 2 dev(A) dev(B)",
           "test_relations.py::test_the_mu_tie_sits_at_eps_times_twice_the_deviations"),
    Mutant("schrodinger-size-unsquared", RELATIONS,
           "any(m.zero), _square(m.a.norm * m.b.norm))", "any(m.zero), m.a.norm * m.b.norm)",
           "a violation floor is in the bound's units: quartic in the observables for Schrodinger",
           "test_relations.py::test_the_schrodinger_violation_floor_is_quartic_at_every_scale"),
    Mutant("overlap-budget-x10", RELATIONS,
           "if overlap > _pair_budget(tol):", "if overlap > 10.0 * _pair_budget(tol):",
           "a pair whose overlap exceeds the pair budget is NotOrthogonal",
           "test_relations.py::test_the_overlap_check_rejects_what_the_pair_budget_does_not_admit"),
    Mutant("unit-mu-budget-x2", RELATIONS,
           "if not abs(abs(mu) - 1.0) <= _pair_budget(tol):", "if not abs(abs(mu) - 1.0) <= 2.0 * _pair_budget(tol):",
           "a mu off the unit circle by more than the pair budget is a bad input",
           "test_relations.py::test_a_mu_off_the_unit_circle_by_more_than_the_pair_budget_is_a_bad_input"),
    Mutant("r-family-band-x-sqrt10", SATURATION,
           "band = m.state.weights, math.sqrt(10.0 * m.tol.eps)",
           "band = m.state.weights, math.sqrt(100.0 * m.tol.eps)",
           "a certificate's power re-check admits a residual up to dev sqrt(10 eps), and no more",
           "test_saturation.py::test_the_power_recheck_admits_a_residual_up_to_its_band"),
    Mutant("r-family-zero-sides-dropped", SATURATION,
           "m.dev_a, m.zero[0]), (coeff_b, m.b, m.dev_b, m.zero[1])", "m.dev_a, False), (coeff_b, m.b, m.dev_b, False)",
           "the power re-check gives a side that the reduction calls zero its zero budget's share, not the band",
           "test_saturation.py::test_near_eigenstates_keep_their_certificates_on_rank_k_states"),
    Mutant("mixed-residual-second-norm", SATURATION,
           "r_residuals[0] if rs else ", "",
           "a mixed certificate's residual is its re-check's r = 1/2 residual, also where one side is zero (pin: a "
           "planted re-check, so that no BLAS kernel's rounding decides the verdict)",
           "test_saturation.py::test_a_mixed_certificate_with_one_zero_side_reads_its_residual_from_its_recheck"),
    Mutant("mp6-degenerate-strict", RELATIONS,
           "if reformulated.lhs <= m.tol.eps:", "if reformulated.lhs < m.tol.eps:",
           "the mp6 product form's denominator is degenerate up to and at eps",
           "test_relations.py::test_the_mp6_denominator_is_degenerate_up_to_and_at_eps"),
    Mutant("phase-floor-zero", SATURATION,
           "> TIE_TOL * _norm(row):", "> 0.0 * _norm(row):",
           "a construction's phase is fixed only where its entry with the row is above TIE_TOL ||row||",
           "test_saturation.py::test_a_phase_below_the_tie_floor_is_left_unfixed"),
    Mutant("construction-keep-inclusive", SATURATION,
           "(norm := _norm(tail)) > floor)", "(norm := _norm(tail)) >= floor)",
           "a construction is degenerate, with phi = e2, where its tail's norm is at or below its floor",
           "test_saturation.py::test_construct_case2_degenerate_first_row"),
    Mutant("construction-phase-dropped", SATURATION,
           "direction *= cmath.exp(-1j * cmath.phase(entry))", "pass",
           "case 2 phases phi so that <psi|(A - mu B)|phi> is real nonnegative",
           "test_saturation.py::test_construct_case2_phase_convention"),
    Mutant("decide-violation-inclusive", RELATIONS,
           "if slack < -budget:", "if slack <= -budget:",
           "a bound is violated only where its slack is below minus its budget, so a zero slack at budget 0 is not",
           "test_relations.py::test_a_zero_slack_within_a_zero_violation_budget_is_saturated_and_raises_nothing"),
    Mutant("decide-input-budget-dropped", RELATIONS,
           "max(_input_budget(tol) * max(abs(lhs), abs(rhs)), ROUNDING_TOL * size) + pair",
           "ROUNDING_TOL * size + pair",
           "a negative slack within the input budget times the larger side is reported, not raised",
           "test_relations.py::test_make_report_flags_and_violation"),
    Mutant("decide-pair-term-dropped", RELATIONS,
           "ROUNDING_TOL * size) + pair", "ROUNDING_TOL * size)",
           "a Maccone-Pati violation floor carries the Gram deviation that the pair checks admit",
           "test_relations.py::test_a_stretched_pair_that_the_gram_test_admits_violates_no_bound"),
    Mutant("moments-uncentred", STATES,
           "y -= means.real * x[..., None, :, :]", "pass",
           "the deviations and the cross term are read from the centred pair A_c X, B_c X",
           "test_states.py::test_stddev_shift_invariance"),
    Mutant("digest-tag-shapeless", STATES,
           'hashlib.sha256(f"{kind}{arrays[0].shape}".encode())', 'hashlib.sha256(f"{kind}".encode())',
           "an input's digest is tagged with its kind and its shape",
           "test_states.py::test_input_digests_are_pinned"),
    Mutant("hermitian-imaginary-transposed", SAMPLING,
           "np.subtract(y, y.swapaxes(-1, -2), out=h.imag)", "np.subtract(y.swapaxes(-1, -2), y, out=h.imag)",
           "the sampler's imaginary part of e^{i pi/4} X is (y - y^T)/2, that of Observable.hermitian_part",
           "test_sampling.py::test_the_samplers_real_hermitian_part_is_the_complex_one_bit_for_bit"),
    Mutant("schrodinger-certificate-robertson-decision", REPORTING,
           '("schrodinger_certificate", CertificateKind.SCHRODINGER, mixed, "schrodinger_mixed")',
           '("schrodinger_certificate", CertificateKind.SCHRODINGER, mixed, "robertson_mixed")',
           "a certificate exists exactly when its own bound's decision is saturated",
           "test_reporting_cli.py::test_a_certificate_is_present_exactly_where_its_bound_is_saturated"),
    Mutant("mu-sign-inclusive", RELATIONS,
           "mu = -1j if comm.imag > 0 and not tie else 1j", "mu = -1j if comm.imag >= 0 and not tie else 1j",
           "mu makes mu <[A, B]> nonnegative, ties to i",
           equivalent="an exactly zero commutator is always a tie, so comm.imag = 0 never reaches the sign test"),
    Mutant("zero-deviation-fast-path-dropped", STATES,
           "return dev <= tol.eps * o.norm and dev <= _zero_budget(o, tol)", "return dev <= _zero_budget(o, tol)",
           "a deviation above eps ||A||_F is not zero, and the zero rule decides it without the zero budget: the "
           "budget is at most eps ||A||_F (spread(A) <= ||A||_F), so the dropped test changes no decision, only the "
           "certify requests' pinned call counts",
           "test_saturation.py::test_a_certify_request_makes_a_fixed_number_of_python_calls"),
    Mutant("tolerance-zero-exclusive", LINALG,
           "if not 0 <= eps < math.inf:", "if not 0 < eps < math.inf:",
           "eps = 0 is a tolerance: every comparison exact, with only the rounding floors left",
           "test_linalg.py::test_tolerance_is_one_finite_nonnegative_eps"),
    Mutant("sample-rank-strict", SAMPLING,
           "if not 1 <= self.rank <= self.dimension:", "if not 1 <= self.rank < self.dimension:",
           "a sample's rank lies in [1, n], full rank included",
           "test_sampling.py::test_sample_config_validation"),
    Mutant("certificate-zero-witness-swapped", SATURATION,
           "m.dev_a if zero[0]", "m.dev_b if zero[0]",
           "a pure certificate's zero side, of witness (1, 0), leaves the residual dev(A), that side's deviation",
           "test_saturation.py::test_pure_certificate_degenerate_deviation"),
    Mutant("support-cutoff-inclusive", LINALG,
           "len([x for x in lam if x > cut])", "len([x for x in lam if x >= cut])",
           "a support keeps the eigenvalues above INPUT_TOL ||w||, and drops one at the cutoff",
           "test_linalg.py::test_a_support_drops_an_eigenvalue_at_the_cutoff_and_keeps_one_above_it"),
    Mutant("full-support-inclusive", STATES,
           "if w[0] > INPUT_TOL * _norm(w):", "if w[0] >= INPUT_TOL * _norm(w):",
           "a factor-built state's moments read G/||G||_F only where the cutoff keeps every Gram eigenvalue",
           "test_states.py::"
           "test_a_factor_built_states_moments_read_g_only_where_the_cutoff_keeps_every_gram_eigenvalue"),
    Mutant("psd-floor-x10", LINALG,
           "lam[-1] < -INPUT_TOL * float(np.abs(w).sum())", "lam[-1] < -10.0 * INPUT_TOL * float(np.abs(w).sum())",
           "an eigenvalue below -INPUT_TOL sum |lambda| is NotPositiveSemidefinite",
           "test_linalg.py::test_psd_power_rejects_an_eigenvalue_only_below_its_floor"),
    Mutant("psd-pretest-decides-alone", LINALG,
           " and lam[-1] < -INPUT_TOL * float(np.abs(w).sum())", "",
           "the PSD pre-test at -INPUT_TOL lambda_max only skips the sum; -INPUT_TOL sum |lambda| decides",
           "test_linalg.py::test_the_psd_pretest_decides_as_the_summed_rule_at_its_floor_to_the_ulp"),
    Mutant("psd-pretest-reads-lambda-min", LINALG,
           "lam[-1] < -INPUT_TOL * lam[0] and", "lam[-1] < -INPUT_TOL * lam[-1] and",
           "the PSD test sums |lambda| only below -INPUT_TOL lambda_max, where the sum can decide",
           "test_linalg.py::test_the_psd_test_sums_the_spectrum_only_where_it_can_fail"),
    Mutant("mean-residue-inclusive", STATES,
           "if abs(mean.imag) > INPUT_TOL * obs.norm:", "if abs(mean.imag) >= INPUT_TOL * obs.norm:",
           "a mean's imaginary residue passes up to and at INPUT_TOL ||A||_F",
           "test_states.py::test_a_mean_with_an_imaginary_residue_past_its_budget_raises"),
    Mutant("hermitian-inclusive", LINALG,
           "if deviation > INPUT_TOL * norm:", "if deviation >= INPUT_TOL * norm:",
           "a matrix is Hermitian within INPUT_TOL ||m||_F, the bound included",
           "test_linalg.py::test_a_matrix_is_hermitian_up_to_and_at_its_budget"),
    Mutant("orthonormal-budget-size-one", LINALG,
           "_pair_budget(tol, math.sqrt(len(gram)))", "_pair_budget(tol, 1.0)",
           "k columns' Gram deviation has the rounding floor ROUNDING_TOL sqrt(k), the Frobenius size of I_k",
           "test_linalg.py::"
           "test_the_orthonormal_budget_grows_with_the_square_root_of_the_column_count"),
    Mutant("mu-snap-x10", SATURATION,
           "MU_SNAP_TOL = 1e-12", "MU_SNAP_TOL = 1e-11",
           "a given mu is i or -i only within MU_SNAP_TOL",
           "test_saturation.py::test_a_given_mu_is_a_unit_only_within_mu_snap_tol"),
    Mutant("construction-gate-inclusive", REPORTING,
           "abs(pair.achieved_slack) > CONSTRUCTION_TOL", "abs(pair.achieved_slack) >= CONSTRUCTION_TOL",
           "a construction fails the sweep, and saturate exits 2, only where its gap exceeds CONSTRUCTION_TOL",
           "test_reporting_cli.py::test_a_construction_gap_at_the_gate_is_no_failure"),
    Mutant("saturate-choice-first", CLI,
           "names[-1])", "names[0])",
           "saturate builds the target's first construction allowed at n, else fails with its last one's rule",
           "test_reporting_cli.py::test_saturate_builds_the_construction_that_the_sweeps_table_allows_at_n"),
    Mutant("dimension-last-axis", STATES,
           "return getattr(self, self._HASHED[1]).shape[0]", "return getattr(self, self._HASHED[1]).shape[-1]",
           "an input's dimension is n, the leading axis of its hashed array, not a factor's k columns",
           "test_states.py::test_density_from_factor_is_the_matrix_it_factors"),
    Mutant("slot-b-key-dropped", STATES,
           "slot[0]() is a and slot[1]() is b", "slot[0]() is a",
           "a state's kept moments serve only the same A and B",
           "test_states.py::test_a_states_slot_returns_its_last_reduction_for_the_same_observables_only"),
    Mutant("pure-norm-x10", STATES,
           "if abs(norm - 1.0) > INPUT_TOL:", "if abs(norm - 1.0) > 10.0 * INPUT_TOL:",
           "a state vector's norm is 1 within INPUT_TOL",
           "test_states.py::test_a_state_norm_off_one_is_invalid_input"),
    Mutant("pure-norm-inclusive", STATES,
           "if abs(norm - 1.0) > INPUT_TOL:", "if abs(norm - 1.0) >= INPUT_TOL:",
           "a state vector's norm is 1 within INPUT_TOL, the bound included",
           equivalent=NO_DOUBLE_AT_THE_BUDGET),
    Mutant("trace-x10", STATES,
           "if abs(trace - 1.0) > INPUT_TOL:", "if abs(trace - 1.0) > 10.0 * INPUT_TOL:",
           "a density matrix's trace is 1 within INPUT_TOL",
           "test_states.py::test_a_trace_off_one_is_invalid_input"),
    Mutant("trace-inclusive", STATES,
           "if abs(trace - 1.0) > INPUT_TOL:", "if abs(trace - 1.0) >= INPUT_TOL:",
           "a density matrix's trace is 1 within INPUT_TOL, the bound included",
           equivalent=NO_DOUBLE_AT_THE_BUDGET),
    Mutant("phase-dependence-strict", LINALG,
           "return theta if residual <= math.sqrt(", "return theta if residual < math.sqrt(",
           "x and i y are dependent where the residual is at most sqrt(eps (||x||^2 + ||y||^2)), the bound included",
           "test_linalg.py::test_phase_dependence_zero_x_gives_zero_angle"),
    Mutant("phase-budget-x10", LINALG,
           "return theta if residual <= math.sqrt(tol.eps * size_sq)",
           "return theta if residual <= math.sqrt(10.0 * tol.eps * size_sq)",
           "x and i y are dependent where the squared residual is at most eps (||x||^2 + ||y||^2)",
           "test_linalg.py::test_a_dependence_detector_compares_its_squared_residual_with_eps_times_the_size"),
    Mutant("complex-dependence-strict", LINALG,
           "return angles if residual <= math.sqrt(", "return angles if residual < math.sqrt(",
           "x and y are dependent where the residual is at most sqrt(eps (||x||^2 + ||y||^2)), the bound included",
           "test_linalg.py::test_a_dependence_detector_compares_its_squared_residual_with_eps_times_the_size"),
    Mutant("complex-budget-x10", LINALG,
           "return angles if residual <= math.sqrt(tol.eps * size_sq)",
           "return angles if residual <= math.sqrt(10.0 * tol.eps * size_sq)",
           "x and y are dependent where the squared residual is at most eps (||x||^2 + ||y||^2)",
           "test_linalg.py::test_a_dependence_detector_compares_its_squared_residual_with_eps_times_the_size"),
    Mutant("rng-dimension-zero", SAMPLING,
           "if n < 1:", "if n < 0:",
           "every sampler rejects a dimension below 1 at its one door, _rng",
           "test_sampling.py::test_samplers_reject_dimensions_below_one_and_ranks_out_of_range"),
    Mutant("sample-count-zero", SAMPLING,
           "if self.count < 1:", "if self.count < 0:",
           "a sweep runs at least one trial",
           "test_sampling.py::test_sample_config_validation"),
    Mutant("zero-factor-inclusive", STATES,
           "if not peak > 0.0:", "if not peak >= 0.0:",
           "a factor with no nonzero entry is InvalidInput",
           "test_states.py::test_a_zero_factor_is_invalid_input"),
    # Every array an input holds is read-only: the one writer of an existing input freezes what it sets, and each
    # stacked maker freezes its stack where it is made.
    Mutant("input-set-unfrozen", STATES,
           "v.setflags(write=False)", "v.setflags(write=v.flags.writeable)",
           "an input's one writer (_set) freezes each array it sets, a loaded or copied input's included",
           READ_ONLY_PIN),
    Mutant("observable-stack-unfrozen", STATES,
           "h.setflags(write=False)", "h.setflags(write=h.flags.writeable)",
           "Observable._frozen freezes its stack of matrices", READ_ONLY_PIN),
    Mutant("pure-stack-unfrozen", STATES,
           "a.setflags(write=False)", "a.setflags(write=a.flags.writeable)",
           "PureState._stack freezes its stack of amplitudes", READ_ONLY_PIN),
    Mutant("sweep-rows-unfrozen", SAMPLING,
           "rows.setflags(write=False)", "pass",
           "a chunk's stack of unit rows, which its states hold uncopied, is frozen as a whole",
           "test_states.py::test_a_stacked_pure_states_amplitudes_alias_no_writable_array"),
    Mutant("construction-stack-a-view", SATURATION,
           "PureState._stack(rows))", "PureState._stack(rows[:]))",
           "a construction hands PureState._stack the array that owns its phis, so the owner is frozen too",
           "test_states.py::test_a_stacked_pure_states_amplitudes_alias_no_writable_array"),
    Mutant("pair-slot-ab-unkeyed", RELATIONS,
           "kept[0]() is phi and kept[1]() is m.a and kept[2]() is m.b", "kept[0]() is phi",
           "a constructed pair's kept c and d are read only with the A and B objects that built them",
           "test_saturation.py::test_maccone_pati_flags_are_their_reports_at_every_scale"),
    Mutant("pair-slot-phi-unkeyed", RELATIONS,
           "kept[0]() is phi and kept[1]() is m.a", "kept[1]() is m.a",
           "a constructed pair's kept c and d are read only with the phi object that they pair e1 with",
           "test_saturation.py::test_a_copied_e1_or_another_phi_takes_the_full_path"),
    Mutant("pair-gram-phi-unkeyed", RELATIONS,
           "if kept is not None and kept[0]() is phi:", "if kept is not None:",
           "a constructed pair's Gram rows [[1, 0], [0, <phi, phi>]] stand only for its own phi object",
           "test_saturation.py::test_a_copied_e1_or_another_phi_takes_the_full_path"),
    Mutant("factor-stack-unfrozen", STATES,
           "prescaled.setflags(write=False)", "prescaled.setflags(write=prescaled.flags.writeable)",
           "DensityMatrix._from_factors freezes its stack of prescaled factors", READ_ONLY_PIN),
    Mutant("root-stack-unfrozen", STATES,
           "roots.setflags(write=False)", "roots.setflags(write=roots.flags.writeable)",
           "DensityMatrix._from_factors freezes its stack of roots G/||G||_F", READ_ONLY_PIN),
    Mutant("hermitian-scale-unhalved", SAMPLING,
           "x * (_ROOT_HALF / 2.0)", "x * _ROOT_HALF",
           "the sampler's halving is folded into its scale, fl(1/sqrt(2))/2, exact away from subnormals",
           "test_sampling.py::test_the_samplers_real_hermitian_part_is_the_complex_one_bit_for_bit"),
    # The zero rule, decided once where a reduction is built, and each site that reads its sides (m.zero): a product
    # form needs one deviation zero to rounding (any), a sum form both (all).  Each pin has one deviation zero to
    # rounding but not exactly zero, unless it says otherwise.
    Mutant("zero-side-on-the-other-deviation", STATES,
           "_zero_deviation(dev_a, a, tol)", "_zero_deviation(dev_b, a, tol)",
           "each zero side is decided on its own deviation, dev(A) for A's",
           "test_relations.py::test_a_product_bound_reads_one_deviation_zero_to_rounding_as_saturated"),
    Mutant("sweep-mixed-reduction-default-tol", REPORTING,
           "mixed = _pair_moments(a, b, rho, rho_x, tol)", "mixed = _pair_moments(a, b, rho, rho_x, DEFAULT_TOL)",
           "a sweep's reductions decide their zero sides at the sweep's tolerance, as its public entries do",
           "test_reporting_cli.py::test_sweep_records_equal_the_public_api"),
    Mutant("robertson-zero-rule-all", RELATIONS,
           "any(m.zero), m.a.norm * m.b.norm)", "all(m.zero), m.a.norm * m.b.norm)",
           "Robertson is saturated by the zero rule where one deviation is zero",
           "test_relations.py::test_a_product_bound_reads_one_deviation_zero_to_rounding_as_saturated"),
    Mutant("schrodinger-zero-rule-all", RELATIONS,
           "any(m.zero), _square(", "all(m.zero), _square(",
           "Schrodinger is saturated by the zero rule where one deviation is zero",
           "test_relations.py::test_a_product_bound_reads_one_deviation_zero_to_rounding_as_saturated"),
    Mutant("mu-tie-zero-rule-all", RELATIONS,
           "m.dev_a * m.dev_b or any(m.zero)", "m.dev_a * m.dev_b or all(m.zero)",
           "mu is a tie, which goes to i, where one deviation is zero",
           "test_relations.py::test_one_deviation_zero_to_rounding_ties_mu"),
    Mutant("mp6-zero-rule-all", RELATIONS,
           "if any(m.zero):", "if all(m.zero):",
           "the product bound raises ZeroDeviation where one deviation is zero, before it divides by it",
           "test_relations.py::test_mp6_rejects_one_deviation_zero_to_rounding"),
    Mutant("chain-zero-rule-any", RELATIONS,
           "scale, m.tol, all(m.zero), size, pair)", "scale, m.tol, any(m.zero), size, pair)",
           "the chain's steps are saturated by the zero rule only where both deviations are zero (pin: one exact zero)",
           "test_relations.py::test_a_sum_bound_with_one_zero_deviation_is_decided_by_its_slack"),
    Mutant("certificate-gram-zero-all", SATURATION,
           "0j if any(zero) else m.cross", "0j if all(zero) else m.cross",
           "a deviation zero to rounding enters the Gram form as an exact 0, with a cross term 0",
           "test_saturation.py::test_a_certificate_enters_one_deviation_zero_to_rounding_as_exactly_zero"),
    Mutant("certificate-residual-zero-any", SATURATION,
           "residual = (0.0 if all(zero) else", "residual = (0.0 if any(zero) else",
           "a certificate's residual is 0 only where both deviations are zero; one zero side leaves its deviation",
           "test_saturation.py::test_a_certificate_enters_one_deviation_zero_to_rounding_as_exactly_zero"),
    Mutant("chain-theta-zero-any", SATURATION,
           "theta = 0.0 if all(m.zero)", "theta = 0.0 if any(m.zero)",
           "the chain certificate's theta is 0 only where both deviations are zero, else -arg(c + mu d)",
           "test_saturation.py::test_the_chain_certificate_angle_is_zero_only_where_both_deviations_are"),
    Mutant("w-mp6-tails-errstate-dropped", SATURATION,
           'with np.errstate(divide="ignore", invalid="ignore"):', "with np.errstate():",
           "a w_mp6 trial with a zero deviation divides into a NaN row with no warning, and the mp6 decision raises "
           "ZeroDeviation (pin: an exact zero, and a dev(A) that underflows beside a nonzero tail)",
           "test_saturation.py::test_construct_w_mp6_zero_tail_rejected"),
    Mutant("construction-gap-zero-any", SATURATION,
           "gap = 0.0 if all(m.zero)", "gap = 0.0 if any(m.zero)",
           "an mp3 construction's gap is 0 by the zero rule only where both deviations are zero",
           "test_saturation.py::test_a_construction_gap_is_zero_only_where_both_deviations_are"),
    Mutant("zero-product-all", SATURATION,
           "product_is_zero=any(m.zero)", "product_is_zero=all(m.zero)",
           "dev(A) dev(B) is zero where one deviation is",
           "test_saturation.py::test_the_zero_characterizations_read_one_deviation_zero_to_rounding"),
    Mutant("zero-sum-any", SATURATION,
           "return all(_reduction(", "return any(_reduction(",
           "dev(A)^2 + dev(B)^2 is zero only where both deviations are",
           "test_saturation.py::test_the_zero_characterizations_read_one_deviation_zero_to_rounding"),
    # Rules that the certify path's trimmed entry checks, power re-check and mu check state in new places.
    Mutant("square-matrix-empty-admitted", LINALG,
           "a.shape[0] != a.shape[1] or not a.size:", "a.shape[0] != a.shape[1]:",
           "an empty matrix is no square matrix: DimensionMismatch, as for any shape but n x n with n >= 1",
           "test_states.py::test_hermitian_part_is_the_checked_observable_bit_for_bit"),
    Mutant("r-family-half-from-product", SATURATION,
           "residuals = (_norm(y), *roots[1:])", "residuals = tuple(roots)",
           "the power re-check's r = 1/2 residual is ||Y||_F itself, bit for bit, not the product's root",
           "test_saturation.py::test_the_one_pass_recheck_matches_the_per_power_oracle"),
    Mutant("mu-snap-minus-i-dropped", SATURATION,
           "-1j if abs(given + 1j) <= MU_SNAP_TOL else None", "None",
           "a checker takes a given mu within MU_SNAP_TOL of -i as -i exactly, as it takes one near i as i",
           "test_saturation.py::test_a_given_mu_is_a_unit_only_within_mu_snap_tol"),
    Mutant("commutation-witness-zero-any", SATURATION,
           "if not all(m.zero):", "if not any(m.zero):",
           "the qubit commutation witness needs both centred products to vanish, else it is None",
           "test_saturation.py::test_the_zero_characterizations_read_one_deviation_zero_to_rounding"),
)


def run(tree: Path, command: list[str]) -> subprocess.CompletedProcess:
    """``command`` in ``tree``, with ``tree/src`` as PYTHONPATH, as Tier-1 runs, and no bytecode cache, which a
    mutant of the same size written in the same second as a cached compile would leave stale."""
    env = dict(os.environ, PYTHONPATH=str(tree / "src"), PYTHONDONTWRITEBYTECODE="1")
    return subprocess.run(command, cwd=tree, env=env, capture_output=True, text=True)


def main(argv: list[str]) -> int:
    started = time.perf_counter()
    chosen = [m for m in CATALOGUE if not argv or m.name in argv]
    unknown = set(argv) - {m.name for m in CATALOGUE}
    if unknown:
        print(f"unknown mutants: {', '.join(sorted(unknown))}")
        return 2
    for m in chosen:
        count = (ROOT / m.path).read_text(encoding="utf-8").count(m.old)
        if count != 1:
            print(f"{m.name}: its old text occurs {count} times in {m.path}, not once")
            return 2
        if (m.pin is None) == (m.equivalent is None):
            print(f"{m.name}: names a pin and an equivalence, or neither; it must name one")
            return 2
    pins = sorted({f"tests/{m.pin}" for m in chosen if m.pin})
    with tempfile.TemporaryDirectory(prefix="qubounds-mutants-") as scratch:
        tree = Path(scratch) / "tree"
        shutil.copytree(ROOT, tree, ignore=IGNORED)
        where = run(tree, [sys.executable, "-c", "import qubounds; print(qubounds.__file__)"]).stdout.strip()
        if not Path(where).is_relative_to(tree):
            print(f"the copy imports qubounds from {where}, not from its own src")
            return 2
        checks = [("a pin", PYTEST + pins)] if pins else []
        if any(m.equivalent for m in chosen):
            checks.append(("Tier-1", TIER1))
        for what, command in checks:
            base = run(tree, command)
            if base.returncode != 0:
                print(f"{what} is missing or fails on the unmutated copy:\n" + (base.stdout + base.stderr)[-2000:])
                return 2
        survivors = []
        for m in chosen:
            target = tree / m.path
            original = target.read_text(encoding="utf-8")
            target.write_text(original.replace(m.old, m.new), encoding="utf-8")
            began = time.perf_counter()
            try:
                result = run(tree, PYTEST + [f"tests/{m.pin}"] if m.pin else TIER1)
            finally:
                target.write_text(original, encoding="utf-8")
            killed = result.returncode in (1, 2)  # tests failed, or collection was interrupted by an error
            failed = next((line for line in result.stdout.splitlines() if line.startswith("FAILED")), "")
            verdict = "killed" if killed else "equivalent, survived" if m.equivalent else "SURVIVED"
            print(f"{verdict:22} {m.name:42} {time.perf_counter() - began:5.1f} s  {m.pin or failed}")
            if not killed and not m.equivalent:
                survivors.append(m)
    for m in survivors:
        print(f"survivor {m.name} ({m.path}): {m.old!r} -> {m.new!r}; its pin {m.pin} passes; rule: {m.rule}")
    print(f"{len(chosen)} mutants in {time.perf_counter() - started:.0f} s")
    return 1 if survivors else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

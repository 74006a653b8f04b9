"""Mutation gate: each catalogued one-line mutant of ``src/`` must make Tier-1 fail.

    python tests/mutants.py [NAME ...]

For each mutant in ``CATALOGUE`` (or each one named), the script copies the repository, without ``.git``
and caches, into a temporary directory, replaces the mutant's old text in its file by its new text (the old
text must occur exactly once), and runs Tier-1 there with ``-x``.  An unmutated copy runs first and must
pass, and the copy's tests must import the copy's ``src``.  The script prints each mutant as killed or
survived, and exits 1 when a mutant that the catalogue does not list as equivalent survives, or 2 when the
catalogue no longer matches the source or the unmutated copy fails.  Each mutant costs up to one Tier-1 run
(about 15 s), so the script is not part of Tier-1.  It uses only the standard library.
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
TIER1 = [sys.executable, "-X", "dev", "-m", "pytest", "-q", "-x", "--continue-on-collection-errors",
         "-p", "no:cacheprovider"]
IGNORED = shutil.ignore_patterns(".git", "__pycache__", ".pytest_cache", ".hypothesis", "*.egg-info")


class Mutant(NamedTuple):
    """One edit of one file: ``old`` replaced by ``new``, and the rule of the README or ROADMAP that it breaks.
    ``equivalent`` gives the reason why no test can kill it, for a mutant expected to survive."""

    name: str
    path: str
    old: str
    new: str
    rule: str
    equivalent: str | None = None


LINALG, RELATIONS, SATURATION = "src/qubounds/linalg.py", "src/qubounds/relations.py", "src/qubounds/saturation.py"
STATES, SAMPLING, REPORTING = "src/qubounds/states.py", "src/qubounds/sampling.py", "src/qubounds/reporting.py"

CATALOGUE = (
    Mutant("decide-flag-strict", RELATIONS,
           "bool(zero or slack <= tol.eps * scale)", "bool(zero or slack < tol.eps * scale)",
           "a bound is saturated at slack <= eps * scale, so a zero slack at eps = 0 is saturated"),
    Mutant("mp3-zero-rule-any", RELATIONS,
           "return _decide(\"mp3\", lhs, rhs, lhs, tol, all(_zero_deviations(m, tol)),",
           "return _decide(\"mp3\", lhs, rhs, lhs, tol, any(_zero_deviations(m, tol)),",
           "a sum bound is saturated by the zero rule only when both deviations are zero"),
    Mutant("case2-floor-one-deviation", SATURATION,
           "[tol.eps * (m.dev_a + m.dev_b) for m in moments]", "[tol.eps * m.dev_a for m in moments]",
           "the case-2 tail is degenerate at or below eps (dev(A) + dev(B)), the scale of its rounding"),
    Mutant("mu-tie-budget-x2", RELATIONS,
           "abs(comm) <= tol.eps * 2.0 * m.dev_a * m.dev_b", "abs(comm) <= tol.eps * 4.0 * m.dev_a * m.dev_b",
           "a mu tie is |<[A, B]>| <= eps 2 dev(A) dev(B), relative as |<[A, B]>| <= 2 dev(A) dev(B)"),
    Mutant("schrodinger-size-unsquared", RELATIONS,
           "any(_zero_deviations(m, tol)), _square(m.a.norm * m.b.norm))",
           "any(_zero_deviations(m, tol)), m.a.norm * m.b.norm)",
           "a violation floor is in the bound's units: quartic in the observables for Schrodinger"),
    Mutant("overlap-budget-x10", RELATIONS,
           "if overlap > _pair_budget(tol):", "if overlap > 10.0 * _pair_budget(tol):",
           "a pair whose overlap exceeds the pair budget is NotOrthogonal"),
    Mutant("unit-mu-budget-x2", RELATIONS,
           "if not abs(abs(mu) - 1.0) <= _pair_budget(tol):", "if not abs(abs(mu) - 1.0) <= 2.0 * _pair_budget(tol):",
           "a mu off the unit circle by more than the pair budget is a bad input"),
    Mutant("r-family-band-x-sqrt10", SATURATION,
           "math.sqrt(10.0 * tol.eps), _zero_deviations", "math.sqrt(100.0 * tol.eps), _zero_deviations",
           "a certificate's power re-check admits a residual up to dev sqrt(10 eps), and no more"),
    Mutant("mp6-degenerate-strict", RELATIONS,
           "if reformulated.lhs <= tol.eps:", "if reformulated.lhs < tol.eps:",
           "the mp6 product form's denominator is degenerate up to and at eps"),
    Mutant("phase-floor-zero", SATURATION,
           "abs(e) > TIE_TOL * r for e, r", "abs(e) > 0.0 * r for e, r",
           "a construction's phase is fixed only where its entry with the row is above TIE_TOL ||row||"),
    Mutant("construction-keep-inclusive", SATURATION,
           "keeps.append(keep := norms > floors)", "keeps.append(keep := norms >= floors)",
           "a construction is degenerate, with phi = e2, where its tail's norm is at or below its floor"),
    Mutant("construction-phase-dropped", SATURATION,
           "np.multiply(direction, np.array(phases)[:, None], out=direction, where=fix[:, None])", "pass",
           "case 2 phases phi so that <psi|(A - mu B)|phi> is real nonnegative"),
    Mutant("decide-pair-term-dropped", RELATIONS,
           "ROUNDING_TOL * size) + pair", "ROUNDING_TOL * size)",
           "a Maccone-Pati violation floor carries the Gram deviation that the pair checks admit"),
    Mutant("moments-uncentred", STATES,
           "y -= means.real * x[..., None, :, :]", "pass",
           "the deviations and the cross term are read from the centred pair A_c X, B_c X"),
    Mutant("digest-tag-shapeless", STATES,
           'hashlib.sha256(f"{kind}{arrays[0].shape}".encode())', 'hashlib.sha256(f"{kind}".encode())',
           "an input's digest is tagged with its kind and its shape"),
    Mutant("hermitian-imaginary-transposed", SAMPLING,
           "np.subtract(y, y.swapaxes(-1, -2), out=h.imag)", "np.subtract(y.swapaxes(-1, -2), y, out=h.imag)",
           "the sampler's imaginary part of e^{i pi/4} X is (y - y^T)/2, that of Observable.hermitian_part"),
    Mutant("schrodinger-certificate-robertson-decision", REPORTING,
           '("schrodinger_certificate", CertificateKind.SCHRODINGER, mixed, "schrodinger_mixed")',
           '("schrodinger_certificate", CertificateKind.SCHRODINGER, mixed, "robertson_mixed")',
           "a certificate exists exactly when its own bound's decision is saturated"),
    Mutant("mu-sign-inclusive", RELATIONS,
           "mu = -1j if comm.imag > 0 and not tie else 1j", "mu = -1j if comm.imag >= 0 and not tie else 1j",
           "mu makes mu <[A, B]> nonnegative, ties to i",
           equivalent="an exactly zero commutator is always a tie, so comm.imag = 0 never reaches the sign test"),
    Mutant("zero-deviation-fast-path-dropped", RELATIONS,
           "return dev <= tol.eps * o.norm and dev <= _zero_budget(o, tol)", "return dev <= _zero_budget(o, tol)",
           "a deviation is zero within the zero budget, which no identity offset moves",
           equivalent="spread(A) <= ||A||_F and min(eps, ROUNDING_TOL) <= eps, so the budget is at most "
                      "eps ||A||_F and the dropped test is implied: it is only a fast path"),
    Mutant("tolerance-zero-exclusive", LINALG,
           "if not 0 <= eps < math.inf:", "if not 0 < eps < math.inf:",
           "eps = 0 is a tolerance: every comparison exact, with only the rounding floors left"),
    Mutant("sample-rank-strict", SAMPLING,
           "if not 1 <= self.rank <= self.dimension:", "if not 1 <= self.rank < self.dimension:",
           "a sample's rank lies in [1, n], full rank included"),
    Mutant("certificate-zero-witness-swapped", SATURATION,
           "m.dev_a if zero[0]", "m.dev_b if zero[0]",
           "a zero side's witness (1, 0) leaves the residual dev(A), that side's deviation"),
    Mutant("support-cutoff-inclusive", LINALG,
           "np.count_nonzero(w > INPUT_TOL * _norm(w))", "np.count_nonzero(w >= INPUT_TOL * _norm(w))",
           "a support keeps the eigenvalues above INPUT_TOL ||w||, and drops one at the cutoff"),
    Mutant("full-support-inclusive", STATES,
           "if w[0] > INPUT_TOL * _norm(w):", "if w[0] >= INPUT_TOL * _norm(w):",
           "a factor-built state's moments read G/||G||_F only where the cutoff keeps every Gram eigenvalue"),
    Mutant("psd-floor-x10", LINALG,
           "low < -INPUT_TOL * float(np.abs(w).sum())", "low < -10.0 * INPUT_TOL * float(np.abs(w).sum())",
           "an eigenvalue below -INPUT_TOL sum |lambda| is NotPositiveSemidefinite"),
    Mutant("mean-residue-inclusive", STATES,
           "if abs(mean.imag) > INPUT_TOL * obs.norm:", "if abs(mean.imag) >= INPUT_TOL * obs.norm:",
           "a mean's imaginary residue passes up to and at INPUT_TOL ||A||_F"),
    Mutant("hermitian-inclusive", LINALG,
           "if deviation > INPUT_TOL * norm:", "if deviation >= INPUT_TOL * norm:",
           "a matrix is Hermitian within INPUT_TOL ||m||_F, the bound included"),
    Mutant("orthonormal-budget-size-one", LINALG,
           "_pair_budget(tol, math.sqrt(len(gram)))", "_pair_budget(tol, 1.0)",
           "k columns' Gram deviation has the rounding floor ROUNDING_TOL sqrt(k), the Frobenius size of I_k"),
    Mutant("mu-snap-x10", SATURATION,
           "MU_SNAP_TOL = 1e-12", "MU_SNAP_TOL = 1e-11",
           "a given mu is i or -i only within MU_SNAP_TOL"),
    Mutant("construction-gate-inclusive", REPORTING,
           "if abs(outcome.achieved_slack) > CONSTRUCTION_TOL:", "if abs(outcome.achieved_slack) >= CONSTRUCTION_TOL:",
           "a construction fails the sweep only where its gap exceeds CONSTRUCTION_TOL, as the CLI's exit code 2"),
    Mutant("dimension-last-axis", STATES,
           "return getattr(self, self._HASHED[1]).shape[0]", "return getattr(self, self._HASHED[1]).shape[-1]",
           "an input's dimension is n, the leading axis of its hashed array, not a factor's k columns"),
    Mutant("slot-b-key-dropped", STATES,
           "slot[0]() is a and slot[1]() is b", "slot[0]() is a",
           "a state's kept moments serve only the same A and B"),
)


def run(tree: Path, command: list[str] = TIER1) -> subprocess.CompletedProcess:
    """``command`` in ``tree``, with ``tree/src`` as PYTHONPATH, as Tier-1 runs, and no bytecode cache, which a
    mutant of the same size written in the same second as a cached compile would leave stale."""
    env = dict(os.environ, PYTHONPATH=str(tree / "src"), PYTHONDONTWRITEBYTECODE="1")
    return subprocess.run(command, cwd=tree, env=env, capture_output=True, text=True)


def main(argv: list[str]) -> int:
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
    with tempfile.TemporaryDirectory(prefix="qubounds-mutants-") as scratch:
        tree = Path(scratch) / "tree"
        shutil.copytree(ROOT, tree, ignore=IGNORED)
        where = run(tree, [sys.executable, "-c", "import qubounds; print(qubounds.__file__)"]).stdout.strip()
        if not Path(where).is_relative_to(tree):
            print(f"the copy imports qubounds from {where}, not from its own src")
            return 2
        base = run(tree)
        if base.returncode != 0:
            print("the unmutated copy fails Tier-1:\n" + base.stdout[-2000:])
            return 2
        survivors = []
        for m in chosen:
            target = tree / m.path
            original = target.read_text(encoding="utf-8")
            target.write_text(original.replace(m.old, m.new), encoding="utf-8")
            started = time.perf_counter()
            try:
                result = run(tree)
            finally:
                target.write_text(original, encoding="utf-8")
            killed = result.returncode != 0
            failed = next((line for line in result.stdout.splitlines() if line.startswith("FAILED")), "")
            verdict = "killed" if killed else "equivalent, survived" if m.equivalent else "SURVIVED"
            print(f"{verdict:22} {m.name:34} {time.perf_counter() - started:5.1f} s  {failed}")
            if not killed and not m.equivalent:
                survivors.append(m)
    for m in survivors:
        print(f"survivor {m.name} ({m.path}): {m.old!r} -> {m.new!r}; rule: {m.rule}")
    return 1 if survivors else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

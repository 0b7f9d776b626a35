"""Tests of the benchmark itself: its checks reject wrong outputs, its unit
does not depend on the library, and its one kept failure is the documented
window-end fault.

    python3 -m pytest bench/test_bench.py -q
"""

from __future__ import annotations

import dataclasses
import json
import os
import random
import shutil
import subprocess
import sys
from fractions import Fraction as F

import numpy as np
import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path[:0] = [os.path.join(ROOT, "src"), HERE]

import periloc as P  # noqa: E402

import workload_certify  # noqa: E402
import workload_exact  # noqa: E402
import workload_verify  # noqa: E402
from checks import CheckError, on_midpoint_grid, window_end_hit  # noqa: E402


@pytest.fixture(scope="module")
def built(tmp_path_factory):
    out = {}
    for name, mod in (("verify", workload_verify), ("exact", workload_exact), ("certify", workload_certify)):
        workdir = tmp_path_factory.mktemp(name)
        out[name] = mod.build(7, str(workdir))
    return out


def op(wl, name):
    return next(o for o in wl.ops if o.name == name)


def step(wl, name):
    return next(s for s in wl.cli if s.name == name)


def run_cli(argv):
    env = dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src"))
    env.pop("SEED", None)
    proc = subprocess.run([sys.executable, "-m", "periloc.cli", *argv], cwd=ROOT, env=env, capture_output=True, text=True)
    return proc.returncode, proc.stdout


# --- verify ---


def test_verify_rejects_a_shifted_atom_count(built):
    o = op(built["verify"], "e1t-0")
    gate, g, outs = o.run()
    assert o.check((gate, g, outs))
    n, emp, cmp = outs[0]
    moved = dataclasses.replace(emp, count0=emp.count0 + 3, countT=emp.countT - 3)
    with pytest.raises(CheckError):
        o.check((gate, g, [(n, moved, cmp)] + outs[1:]))


def test_verify_rejects_a_skewed_interior(built):
    o = op(built["verify"], "emt-4")
    gate, g, outs = o.run()
    n, emp, cmp = outs[1]
    skewed = dataclasses.replace(emp, interior=np.sort(emp.interior * 0.98))
    with pytest.raises(CheckError):
        o.check((gate, g, outs[:1] + [(n, skewed, cmp)]))


def test_verify_rejects_a_bad_monte_carlo_sample(built):
    o = op(built["verify"], "mc-e1t")
    emp = o.run()
    assert o.check(emp)
    k = len(emp.interior) // 50
    with pytest.raises(CheckError):
        o.check(dataclasses.replace(emp, count0=emp.count0 + k, interior=emp.interior[k:]))


def test_verify_rejects_a_broken_axiom(built):
    o = op(built["verify"], "axioms-0")
    out = o.run()
    i = next(i for i, r in enumerate(out) if r[0] != P.INFINITY)
    lam, shifted, restricted, enlarged = out[i]
    with pytest.raises(CheckError):
        o.check(out[:i] + [(lam, shifted + F(1, 8), restricted, enlarged)] + out[i + 1:])


def test_verify_cli_check_rejects_a_shifted_count(built):
    wl = built["verify"]
    code, out = run_cli(step(wl, "construct-invariant").argv)
    step(wl, "construct-invariant").check(code, out)
    s = step(wl, "verify-invariant")
    code, out = run_cli(s.argv)
    s.check(code, out)
    rep = json.loads(out)
    rep["counts"]["zero"] += 50
    rep["counts"]["interior"] -= 50
    with pytest.raises(CheckError):
        s.check(code, json.dumps(rep))


# --- exact ---


def test_exact_rejects_a_shifted_vectorized_count(built):
    o = op(built["exact"], "offlattice-sup")
    ex, fast = o.run()
    assert o.check((ex, fast))
    with pytest.raises(CheckError):
        o.check((ex, dataclasses.replace(fast, count0=fast.count0 + 1, countInf=fast.countInf - 1)))


def test_exact_rejects_a_perturbed_counting_density(built):
    o = op(built["exact"], "poset-first_time-30")
    counted, swept = o.run()
    assert o.check((counted, swept))
    f = counted.density
    segs = list(f.segments)
    j = next(j for j, (p, _) in enumerate(segs) if p > 0)
    segs[j] = (segs[j][0] - 1, segs[j][1])
    bumped = P.PiecewiseDensity(f.breakpoints, tuple(segs))
    lost = (f.breakpoints[j + 1] - f.breakpoints[j])
    wrong = P.LocationLaw(counted.T, bumped, atom0=counted.atom0 + lost, atomT=counted.atomT, atomInf=counted.atomInf)
    with pytest.raises(CheckError):
        o.check((wrong, swept))


def test_exact_rejects_a_variation_disagreement(built):
    o = op(built["exact"], "tv-0")
    out = o.run()
    a, b = out[3]
    with pytest.raises(CheckError):
        o.check(out[:3] + [(a, not b)] + out[4:])


def test_exact_cli_check_rejects_a_wrong_block(built):
    s = step(built["exact"], "decompose")
    code, out = run_cli(s.argv)
    s.check(code, out)
    rep = json.loads(out)
    rep["blocks"] = rep["blocks"][:-1]
    with pytest.raises(CheckError):
        s.check(code, json.dumps(rep))


# --- certify ---


def test_certify_rejects_a_perturbed_certificate_weight(built):
    o = op(built["certify"], "hull-mix2-0")
    cert = o.run()
    assert isinstance(cert, P.HullCertificate) and o.check(cert)
    comps = list(cert.components)
    (l0, w0), (l1, w1) = comps[0], comps[1]
    eps = min(w0, w1) / 3
    with pytest.raises(CheckError):
        o.check(_fake_certificate([(l0, w0 + eps), (l1, w1 - eps)] + comps[2:]))


def _fake_certificate(components):
    """A HullCertificate that skips its own validation, to feed the check."""
    cert = object.__new__(P.HullCertificate)
    object.__setattr__(cert, "components", tuple(components))
    return cert


def test_certify_rejects_a_wrong_witness(built):
    o = op(built["certify"], "hull-criterion5")
    rep = o.run()
    assert o.check(rep)
    wrong = dataclasses.replace(rep, witness=dict(rep.witness, interval=(F(0), F(1, 3)), integral=F(2, 3)))
    with pytest.raises(CheckError):
        o.check(wrong)


def test_certify_rejects_non_member_for_a_known_mixture(built):
    o = op(built["certify"], "hull-mix2-1")
    fake = P.MembershipReport("non-member", ("forced-component-mass",), {"forced_value": 2, "interval": (0, F(1, 2)), "integral": 1})
    with pytest.raises(CheckError):
        o.check(fake)


def _fake_coupling(matrix, max_row_sum):
    c = object.__new__(P.Coupling)
    object.__setattr__(c, "n", len(matrix))
    object.__setattr__(c, "matrix", tuple(tuple(r) for r in matrix))
    object.__setattr__(c, "max_row_sum", max_row_sum)
    return c


def test_certify_rejects_a_swapped_coupling_entry(built):
    o = op(built["certify"], "rearrangement-step-64")
    prob, coupling = o.run()
    assert o.check((prob, coupling))
    rows = [list(r) for r in coupling.matrix]
    rows[5][0], rows[5][1] = rows[5][1], rows[5][0]
    with pytest.raises(CheckError):
        o.check((prob, _fake_coupling(rows, max(sum(r) for r in rows))))


def test_certify_rejects_a_wrong_max_row_sum(built):
    o = op(built["certify"], "oracle-4")
    prob, opt, found = o.run()
    assert o.check((prob, opt, found))
    with pytest.raises(CheckError):
        o.check((prob, _fake_coupling(opt.matrix, opt.max_row_sum - F(1, 100)), found))


def test_certify_rejects_a_coupling_the_exhaustive_search_beats():
    # a sloped density: every quantile differs, so the pairing matters
    o = workload_certify.oracle_op("oracle-sloped", P.PiecewiseDensity(*workload_certify.SLOPED), 5, random.Random(1))
    prob, opt, found = o.run()
    assert o.check((prob, opt, found))
    # pair the columns comonotonically: large with large, a poor coupling
    cols = [sorted(r[i] for r in opt.matrix) for i in range(prob.N)]
    bad = [[c[r] for c in cols] for r in range(len(opt.matrix))]
    with pytest.raises(CheckError):
        o.check((prob, _fake_coupling(bad, max(sum(r) for r in bad)), found))


# --- the unit and the kept failure ---


def test_reference_kernel_never_imports_periloc():
    code = (
        "import sys; sys.path.insert(0, %r); import refkernel; refkernel.reference_kernel(); "
        "assert not any(m == 'periloc' or m.startswith('periloc.') for m in sys.modules), 'periloc imported'"
    ) % HERE
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    proc = subprocess.run([sys.executable, "-c", code], cwd=HERE, env=env, capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    with open(os.path.join(HERE, "refkernel.py"), encoding="utf-8") as fh:
        assert "import periloc" not in fh.read()


def test_known_failure_is_a_genuine_window_end_hit():
    nodes, locator, T = workload_exact.KNOWN_FAULT_CASE
    g = P.PiecewiseLinearPath(nodes)
    n = workload_exact.GRID
    assert window_end_hit(g.nodes, locator, T, n)
    # the hit at t = 1/2 is the start of the window of the sweep shift 1/2
    u = F(1, 2)
    assert on_midpoint_grid(u, n)
    assert P.last_hit(g, 2, u, u + T) == u  # exact: location 0, an atom
    exact = P.sweep_law(g, workload_exact.exact_locator(locator), T, n)
    fast = P.sweep_law(g, locator, T, n)
    assert (exact.count0, exact.countT, exact.countInf) == (1, 0, 166)
    assert (fast.count0, fast.countT, fast.countInf) == (0, 0, 166)
    assert 0.0 in fast.interior


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_only_the_known_case_is_kept_as_a_failure(seed, tmp_path):
    wl = workload_exact.build(seed, str(tmp_path))
    failed = []
    for o in wl.ops:
        if o.name.startswith(("offlattice-", "constructed-", "window-end")) and not o.check(o.run()):
            failed.append(o.name)
    assert failed == ["window-end-fault"]


def test_run_fails_without_the_library(tmp_path):
    shutil.copytree(HERE, tmp_path / "bench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path / "BENCHMARK.json")
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    cmd = [sys.executable, "bench/run.py", "--workload", "verify", "--seed", "1", "--seconds", "1", "--trace", "0"]
    proc = subprocess.run(cmd, cwd=tmp_path, env=env, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""


def test_an_output_that_differs_from_the_checked_one_is_checked_again(built):
    import run

    o = op(built["exact"], "offlattice-sup")
    ex, fast = o.run()
    runner = run.Runner(built["exact"], kernel=lambda: 1.0)
    runner._record(o.name, o.check, (ex, fast), counted=True)
    assert runner.errors == [] and runner.failed == 0
    moved = dataclasses.replace(fast, interior=fast.interior.copy())
    moved.interior[0] += 1e-3
    assert run.fingerprint((ex, moved)) != run.fingerprint((ex, fast))
    runner._record(o.name, o.check, (ex, moved), counted=True)
    assert len(runner.errors) == 1

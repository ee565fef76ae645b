"""End-to-end acceptance checks.

Each test prints one [PASS]/[FAIL] line (run with ``pytest -s`` to see them
live) and enforces its tolerance with a plain assertion. Together they cover
the closed-form/oracle equivalences, the qualitative operating-point
behaviour, the optimizers and the CLI contract.
"""

import itertools
import json
import math
import time
from dataclasses import replace
from pathlib import Path

import numpy as np

from cvrate import (
    Detection,
    LinkParams,
    ProtocolParams,
    Trust,
    evaluate,
    holevo_bound,
    optimize_vmod,
    optimize_vmod_trec_snr_locked,
)
from cvrate.cloner import effective_v, effective_xi_ch
from cvrate.config import FiberModel
from cvrate.gaussian import (
    Quadrature,
    condition_heterodyne,
    condition_homodyne,
    extract_modes,
    symplectic_eigenvalues,
    von_neumann_entropy,
)
from cvrate.purification import (
    ab_matrix,
    assemble_and_propagate,
    eve_state,
    oracle_conditional_entropy,
    oracle_holevo,
    purified_total_state,
    receiver_folded,
)
from cvrate.cli import main

SZ = np.diag([1.0, -1.0])
FIBER = FiberModel()
PROTO = ProtocolParams(beta=0.95)

# full cross product of the reference grid: 1944 parameter points
GRID = [
    LinkParams(v_mod=v, t_ch=tc, xi_ch=xc, t_rec=tr, xi_rec=xr, xi_pr=xp,
               detection=det, trust=trust)
    for v, tc, xc, tr, xr, xp, det, trust in itertools.product(
        [1.0, 4.0, 16.0],
        [0.1, 0.5, 0.9],
        [0.0, 0.05, 0.2],
        [0.5, 0.8, 1.0 - 1e-9],
        [0.0, 0.1],
        [0.0, 0.3],
        [Detection.HOMODYNE, Detection.HETERODYNE],
        [Trust.UNTRUSTED_ALL, Trust.TRUSTED_RECEIVER, Trust.TRUSTED_RECEIVER_AND_PREPARATION],
    )
]


def report(number: int, description: str, passed: bool, detail: str) -> None:
    print(f"[{'PASS' if passed else 'FAIL'}] criterion {number:2d}: {description} ({detail})")
    assert passed, f"criterion {number}: {description} -- {detail}"


def test_criterion_01_ansatz_equivalence():
    t0 = time.perf_counter()
    worst_chi = worst_cond = 0.0
    for p in GRID:
        pair, chi = holevo_bound(p)
        s_e_oracle = von_neumann_entropy(symplectic_eigenvalues(ab_matrix(p)))
        cond_oracle = oracle_conditional_entropy(p)
        worst_chi = max(worst_chi, abs(chi - (s_e_oracle - cond_oracle)))
        worst_cond = max(worst_cond, abs(pair.s_e_given_b - cond_oracle))
    elapsed = time.perf_counter() - t0
    ok = worst_chi < 1e-8 and worst_cond < 1e-8 and elapsed < 10.0
    report(1, "closed forms match purification oracle on the grid", ok,
           f"worst |dchi| = {worst_chi:.3e}, worst |dS_cond| = {worst_cond:.3e} < 1e-8 "
           f"over {len(GRID)} points, {elapsed:.1f} s < 10 s")


def test_criterion_02_pre_measurement_entropy_identity():
    worst = 0.0
    for p in GRID:
        q = receiver_folded(p) if p.trust is Trust.UNTRUSTED_ALL else p
        s_e = von_neumann_entropy(symplectic_eigenvalues(eve_state(q)))
        s_ab = von_neumann_entropy(symplectic_eigenvalues(ab_matrix(q)))
        worst = max(worst, abs(s_e - s_ab))
    report(2, "eavesdropper entropy equals shared-state entropy", worst < 1e-10,
           f"worst |dS| = {worst:.3e} < 1e-10")


def _pipeline_conditional(p, quad=Quadrature.Q):
    total = assemble_and_propagate(p)
    if p.detection is Detection.HETERODYNE:
        cond = condition_heterodyne(total, 1)
    else:
        cond = condition_homodyne(total, 1, quad)
    return symplectic_eigenvalues(extract_modes(cond, [1, 2]))


def test_criterion_03_closed_forms_match_generic_solver():
    worst = 0.0
    for p in GRID:
        q = receiver_folded(p) if p.trust is Trust.UNTRUSTED_ALL else p
        closed = holevo_bound(q)[0].nu_post
        generic = _pipeline_conditional(q)
        worst = max(worst, float(np.max(np.abs(np.sort(closed) - np.sort(generic)))))
    report(3, "conditional eigenvalues match the ten-by-ten pipeline", worst < 1e-9,
           f"worst |dnu| = {worst:.3e} < 1e-9")


def test_criterion_04_homodyne_quadrature_symmetry():
    worst = 0.0
    for p in GRID:
        if p.detection is not Detection.HOMODYNE:
            continue
        q = receiver_folded(p) if p.trust is Trust.UNTRUSTED_ALL else p
        spec_q = _pipeline_conditional(q, Quadrature.Q)
        spec_p = _pipeline_conditional(q, Quadrature.P)
        worst = max(worst, float(np.max(np.abs(np.sort(spec_q) - np.sort(spec_p)))))
    report(4, "q- and p-measurement spectra agree", worst < 1e-10,
           f"worst asymmetry = {worst:.3e} < 1e-10")


def test_criterion_05_purified_state_is_pure():
    worst = 0.0
    for p in GRID:
        nus = symplectic_eigenvalues(purified_total_state(p))
        worst = max(worst, float(np.max(np.abs(nus - 1.0))))
    report(5, "purified pre-measurement state stays pure", worst < 1e-9,
           f"worst |nu - 1| = {worst:.3e} < 1e-9")


def test_criterion_06_propagated_block_matches_two_mode_form():
    worst = 0.0
    for p in GRID:
        q = receiver_folded(p) if p.trust is Trust.UNTRUSTED_ALL else p
        v = effective_v(q)
        xi = effective_xi_ch(q)
        b = q.t_tot * (v - 1.0) + 1.0 + q.t_rec * xi + q.xi_rec
        c = math.sqrt(q.t_tot * (v * v - 1.0))
        expected = np.zeros((4, 4))
        expected[:2, :2] = v * np.eye(2)
        expected[2:, 2:] = b * np.eye(2)
        expected[:2, 2:] = c * SZ
        expected[2:, :2] = c * SZ
        ab = extract_modes(assemble_and_propagate(q), [0, 1])
        worst = max(worst, float(np.max(np.abs(ab - expected))))
    report(6, "propagated transmitter-receiver block is the two-mode form", worst < 1e-12,
           f"worst entry mismatch = {worst:.3e} < 1e-12")


def test_criterion_07_trivial_limits():
    worst_chi_clean = 0.0
    for t_rec, xi_rec in itertools.product([0.5, 0.8, 1.0], [0.0, 0.1, 0.5]):
        for trust in (Trust.TRUSTED_RECEIVER, Trust.TRUSTED_RECEIVER_AND_PREPARATION):
            for det in Detection:
                # preparation noise is kept out of the eavesdropper's reach
                # only in the trusted-preparation case; anywhere else it counts
                # as channel noise and legitimately leaks
                xi_pr = 0.3 if trust is Trust.TRUSTED_RECEIVER_AND_PREPARATION else 0.0
                p = LinkParams(v_mod=4.0, t_ch=1.0, xi_ch=0.0, t_rec=t_rec, xi_rec=xi_rec,
                               xi_pr=xi_pr, detection=det, trust=trust)
                _, chi = holevo_bound(p)
                worst_chi_clean = max(worst_chi_clean, chi)

    worst_i = worst_chi_unmod = 0.0
    for det, trust in itertools.product(Detection, Trust):
        p = LinkParams(v_mod=0.0, t_ch=0.37, xi_ch=0.0, t_rec=0.71, xi_rec=0.0,
                       detection=det, trust=trust)
        worst_i = max(worst_i, evaluate(p, PROTO).i_ab)
        _, chi = holevo_bound(p)
        worst_chi_unmod = max(worst_chi_unmod, chi)
        # modulation-free mutual information vanishes regardless of noise
        noisy = replace(p, xi_ch=0.2, xi_rec=0.1)
        worst_i = max(worst_i, evaluate(noisy, PROTO).i_ab)

    ok = worst_chi_clean < 1e-9 and worst_i == 0.0 and worst_chi_unmod < 1e-9
    report(7, "transparent channel and zero modulation give nothing away", ok,
           f"max chi(clean) = {worst_chi_clean:.3e}, max I(v_mod=0) = {worst_i:.3e}, "
           f"max chi(v_mod=0, noiseless) = {worst_chi_unmod:.3e}")


def test_criterion_08_key_rate_versus_distance_shape():
    t0 = time.perf_counter()
    distances = np.linspace(1.0, 100.0, 25)
    curves = {}
    for trust in (Trust.UNTRUSTED_ALL, Trust.TRUSTED_RECEIVER):
        rs = []
        for L in distances:
            p = LinkParams(v_mod=1.0, t_ch=FIBER.t_ch(L), xi_ch=0.03, t_rec=0.7, xi_rec=0.05,
                           detection=Detection.HETERODYNE, trust=trust)
            rs.append(optimize_vmod(p, PROTO).result.secret_fraction)
        curves[trust] = np.array(rs)
    elapsed = time.perf_counter() - t0

    un, tr = curves[Trust.UNTRUSTED_ALL], curves[Trust.TRUSTED_RECEIVER]
    starts_positive = un[0] > 0 and tr[0] > 0
    dies = un[-1] <= 0 and tr[-1] <= 0
    dominance = bool(np.all(tr >= un - 1e-10))
    reach_un = distances[un > 0].max()
    reach_tr = distances[tr > 0].max()
    ok = starts_positive and dies and dominance and reach_tr > reach_un and elapsed < 60.0
    report(8, "trusted receiver extends the reach of the rate-distance curve", ok,
           f"reach {reach_un:.0f} km -> {reach_tr:.0f} km, dominance {dominance}, "
           f"{elapsed:.1f} s < 60 s")


def test_criterion_09_beneficial_trusted_receiver_imperfections():
    base = dict(v_mod=4.0, t_ch=FIBER.t_ch(50.0), xi_ch=0.01,
                detection=Detection.HOMODYNE, trust=Trust.TRUSTED_RECEIVER)

    xi_grid = np.linspace(0.0, 1.2, 25)
    r_xi = np.array([
        evaluate(LinkParams(t_rec=0.6, xi_rec=x, **base), PROTO).secret_fraction
        for x in xi_grid
    ])
    k = int(np.argmax(r_xi))
    xi_interior = 0 < k < len(xi_grid) - 1 and r_xi[k] > r_xi[0] and r_xi[k] > 0

    t_grid = np.linspace(0.2, 1.0, 25)
    r_t = np.array([
        evaluate(LinkParams(t_rec=t, xi_rec=0.0, **base), PROTO).secret_fraction
        for t in t_grid
    ])
    m = int(np.argmax(r_t))
    t_interior = 0 < m < len(t_grid) - 1 and r_t[m] > r_t[-1] and r_t[m] > 0

    report(9, "some trusted receiver noise and loss increase the rate", xi_interior and t_interior,
           f"argmax xi_rec = {xi_grid[k]:.2f} (interior {xi_interior}), "
           f"argmax t_rec = {t_grid[m]:.2f} (interior {t_interior})")


def test_criterion_10_snr_locked_receiver_detuning():
    base = dict(v_mod=1.0, xi_ch=0.02, t_rec=1.0, xi_rec=0.0,
                detection=Detection.HOMODYNE, trust=Trust.TRUSTED_RECEIVER)

    def r_vmod_only(L):
        p = LinkParams(t_ch=FIBER.t_ch(L), **base)
        # the exact SNR inversion, v_mod = SNR (mu + xi_tot) / T_tot
        return evaluate(replace(p, v_mod=(p.mu + p.xi_tot) / p.t_tot), PROTO).secret_fraction

    def r_joint(L):
        p = LinkParams(t_ch=FIBER.t_ch(L), **base)
        return optimize_vmod_trec_snr_locked(p, PROTO, 1.0).result.secret_fraction

    pointwise = all(r_joint(L) >= r_vmod_only(L) - 1e-12 for L in np.linspace(5.0, 45.0, 11))

    def reach(fn):
        lo, hi = 5.0, 60.0
        for _ in range(30):
            mid = 0.5 * (lo + hi)
            if fn(mid) > 0:
                lo = mid
            else:
                hi = mid
        return 0.5 * (lo + hi)

    reach_only, reach_joint = reach(r_vmod_only), reach(r_joint)
    ok = pointwise and reach_joint >= reach_only
    report(10, "joint SNR-locked tuning dominates modulation-only tuning", ok,
           f"pointwise dominance {pointwise}, reach {reach_only:.2f} km -> {reach_joint:.2f} km")
    # for this parameter set the detuning buys a strictly longer link
    assert reach_joint > reach_only + 0.1


def test_criterion_11_optimizer_matches_grid_scan():
    rng = np.random.default_rng(20260808)
    grid = np.geomspace(1e-3, 1e3, 2000)
    du = math.log(grid[1]) - math.log(grid[0])
    worst_steps = 0.0
    ok = True
    for _ in range(10):
        p = LinkParams(
            v_mod=1.0,
            t_ch=float(rng.uniform(0.02, 0.9)),
            xi_ch=float(rng.uniform(0.001, 0.08)),
            t_rec=float(rng.uniform(0.4, 0.95)),
            xi_rec=float(rng.uniform(0.0, 0.2)),
            detection=rng.choice([Detection.HOMODYNE, Detection.HETERODYNE]),
            trust=rng.choice([Trust.UNTRUSTED_ALL, Trust.TRUSTED_RECEIVER]),
        )
        opt = optimize_vmod(p, PROTO)
        rs = [evaluate(replace(p, v_mod=v), PROTO).secret_fraction for v in grid]
        best = int(np.argmax(rs))
        steps = abs(math.log(opt.v_mod) - math.log(grid[best])) / du
        worst_steps = max(worst_steps, steps)
        ok = ok and steps <= 1.0 and opt.result.secret_fraction >= rs[best] - 1e-12
    report(11, "golden-section optimum matches a 2000-point scan", ok,
           f"worst displacement = {worst_steps:.2f} grid steps <= 1")


def test_criterion_12_cli_determinism_and_roundtrip(tmp_path, capsys):
    cfg = tmp_path / "sweep.ini"
    cfg.write_text(
        """\
[link]
v_mod = 4.0
distance_km = 10
xi_ch = 0.02
t_rec = 0.7
xi_rec = 0.05
detection = homodyne
trust = trusted_receiver

[protocol]
beta = 0.95

[sweep]
variable = distance_km
start = 1
stop = 40
points = 6
trust_cases = untrusted_all, trusted_receiver
optimize_vmod = true
"""
    )
    out1, out2 = tmp_path / "a.csv", tmp_path / "b.csv"
    rc1 = main(["sweep", "--config", str(cfg), "--out", str(out1)])
    rc2 = main(["sweep", "--config", str(cfg), "--out", str(out2)])
    identical = out1.read_bytes() == out2.read_bytes()

    rc3 = main(["rate", "--config", str(cfg)])
    echoed = json.loads(capsys.readouterr().out)["params"]
    roundtrip = (
        echoed["v_mod"] == 4.0
        and echoed["xi_ch"] == 0.02
        and echoed["t_rec"] == 0.7
        and echoed["xi_rec"] == 0.05
        and echoed["distance_km"] == 10.0
        and echoed["trust"] == "trusted_receiver"
        and echoed["detection"] == "homodyne"
    )
    ok = rc1 == rc2 == rc3 == 0 and identical and roundtrip
    with capsys.disabled():
        report(12, "CLI sweeps are byte-identical and echo the config exactly", ok,
               f"identical {identical}, roundtrip {roundtrip}")


def test_oracle_matches_golden_values():
    # Exact oracle outputs on every 7th grid point, captured before the matrix
    # layer stopped re-validating its own results. Criterion 1 bounds only the
    # gap to the closed forms, so this is what pins the oracle's numbers. A
    # change that alters oracle numerics on purpose regenerates the file.
    path = Path(__file__).resolve().parent / "data" / "golden_oracle_grid.json"
    golden = json.loads(path.read_text())
    assert [row["grid_index"] for row in golden] == list(range(0, len(GRID), 7))
    for row in golden:
        p = GRID[row["grid_index"]]
        assert repr(float(oracle_holevo(p))) == row["oracle_holevo"], p
        assert repr(float(oracle_conditional_entropy(p))) == row["oracle_conditional_entropy"], p


def _result_reprs(res):
    return {"snr": repr(res.snr), "i_ab": repr(res.i_ab), "chi_eb": repr(res.chi_eb),
            "secret_fraction": repr(res.secret_fraction), "key_rate": repr(res.key_rate),
            "eigs": [repr(x) for x in res.eigs]}


def _golden_link(row):
    link = dict(row["link"])
    link["detection"] = Detection(link["detection"])
    link["trust"] = Trust(link["trust"])
    return LinkParams(**link)


def test_closed_forms_and_optimizers_match_golden_values(monkeypatch):
    # Exact evaluate and optimizer outputs, and each search's probe count,
    # captured before the optimizer's probes moved onto plain floats. The
    # probe sequence fixes the printed optimum, so both must stay unchanged.
    from cvrate import optimize as optimize_module

    probes = [0]
    probe = optimize_module._rates

    def counted(*args):
        probes[0] += 1
        return probe(*args)

    monkeypatch.setattr(optimize_module, "_rates", counted)
    golden = json.loads((Path(__file__).resolve().parent / "data" / "golden_closed_forms.json").read_text())

    assert [row["grid_index"] for row in golden["evaluate"]] == list(range(0, len(GRID), 7))
    for row in golden["evaluate"]:
        res = evaluate(GRID[row["grid_index"]], ProtocolParams(**row["protocol"]))
        assert _result_reprs(res) == row["result"], row["grid_index"]

    assert len(golden["optimize_vmod"]) == 36
    for row in golden["optimize_vmod"]:
        probes[0] = 0
        opt = optimize_vmod(_golden_link(row), ProtocolParams(**row["protocol"]))
        got = {"v_mod": repr(opt.v_mod), "boundary": opt.boundary,
               "result": _result_reprs(opt.result), "probes": probes[0]}
        assert got == {k: row[k] for k in got}, row["link"]

    assert len(golden["snr_locked"]) == 24
    for row in golden["snr_locked"]:
        probes[0] = 0
        opt = optimize_vmod_trec_snr_locked(_golden_link(row), ProtocolParams(**row["protocol"]),
                                            row["snr_target"], t_rec_floor=row["t_rec_floor"])
        got = {"v_mod": repr(opt.v_mod), "t_rec": repr(opt.t_rec), "boundary": opt.boundary,
               "snr_residual": repr(opt.snr_residual), "result": _result_reprs(opt.result),
               "probes": probes[0]}
        assert got == {k: row[k] for k in got}, row["link"]

import numpy as np
import pytest
from hypothesis import settings

from mfswipt import (
    ArrayConfig,
    CorrelationMatrices,
    PolarLocation,
    Receiver,
    Scenario,
    build_matrices,
    bundled_scenario_path,
    parse_scenario,
    sum_rate,
    weighted_sum_power,
)

# fixed examples and no per-example deadline: property tests replay the same
# draws on every run and do not flake on a slow or busy machine
settings.register_profile("mfswipt", derandomize=True, deadline=None)
settings.load_profile("mfswipt")


@pytest.fixture(scope="session")
def reference_setup():
    """The bundled deployment: 3 harvesters, 2 decoders, 30 dBm budget, R = 5."""
    cfg, scn = parse_scenario(bundled_scenario_path())
    mats = build_matrices(cfg, scn)
    return cfg, scn, mats


@pytest.fixture(scope="session")
def array256():
    return ArrayConfig(n_antennas=256, carrier_freq=30e9)


def synthetic_single_decoder(
    rng: np.random.Generator, n_eh: int | None = None, common_coupling: float | None = None
):
    """Random K-harvester / one-decoder instance with a shared harvester-to-decoder
    coupling, the structure under which the priority ranking alone determines
    the optimum.  Returns (mats, scenario)."""
    k = int(rng.integers(1, 7)) if n_eh is None else n_eh
    n = k + 1
    lam = np.eye(n)
    for i in range(k):
        for j in range(i + 1, k):
            lam[i, j] = lam[j, i] = rng.uniform(0.0, 0.3)
    coupling = rng.uniform(0.0, 0.6) if common_coupling is None else common_coupling
    lam[:k, k] = coupling
    lam[k, :k] = coupling
    masked = lam.copy()
    masked[k, k] = 0.0

    g_eh = 10.0 ** rng.uniform(-6.5, -4.5, k)
    g_id = np.array([10.0 ** rng.uniform(-9.5, -8.5)])
    zeta = 0.5
    alpha = np.ones(k)
    c_eh = np.concatenate([alpha * zeta * g_eh, [0.0]])
    mats = CorrelationMatrices(
        lambda_full=lam,
        lambda_masked=masked,
        c_eh=c_eh,
        g_eh=g_eh,
        g_id=g_id,
        alpha=alpha,
        zeta=zeta,
    )
    # receiver positions are irrelevant once the matrices exist; placeholders
    # keep the scenario object consistent
    scn = Scenario(
        eh_receivers=tuple(Receiver(PolarLocation(0.0, 10.0)) for _ in range(k)),
        id_receivers=(Receiver(PolarLocation(0.0, 400.0)),),
        sigma2=(1e-11,),
        p0=1.0,
        rate_floor=float(rng.uniform(0.5, 6.0)),
        zeta=zeta,
    )
    return mats, scn


def random_geometry_instance(
    rng: np.random.Generator,
    cfg: ArrayConfig,
    n_eh: int,
    n_id: int,
    rate_floor: float = 5.0,
    p0: float = 1.0,
):
    """Random placements in the deployment annuli; returns (mats, scenario)."""
    from mfswipt import aod_to_spatial_angle, rayleigh_distance

    z = rayleigh_distance(cfg)

    def draw(lo, hi):
        phi = np.pi / 2.0 + rng.uniform(-np.pi / 3.0, np.pi / 3.0)
        theta = aod_to_spatial_angle(cfg, phi)
        return Receiver(PolarLocation(theta, float(rng.uniform(lo * z, hi * z))))

    scn = Scenario(
        eh_receivers=tuple(draw(0.015, 0.3) for _ in range(n_eh)),
        id_receivers=tuple(draw(1.05, 1.3) for _ in range(n_id)),
        sigma2=tuple(1e-11 for _ in range(n_id)),
        p0=p0,
        rate_floor=rate_floor,
    )
    return build_matrices(cfg, scn), scn


# ---------------------------------------------------------------------------
# independent oracles shared by the solver and acceptance suites


def lp_vertex_oracle(mats, scn):
    """Enumerate every vertex of the single-decoder allocation polytope and
    return the best objective value.  Independent of the closed form: it
    evaluates the harvested power at each candidate directly."""
    k = mats.n_eh
    g = mats.g_id[0]
    s2 = scn.sigma2[0]
    growth = 2.0**scn.rate_floor - 1.0
    need = growth * s2 / g
    candidates = []
    if scn.p0 >= need:
        y = np.zeros(k + 1)
        y[k] = scn.p0
        candidates.append(y)
        y = np.zeros(k + 1)
        y[k] = need
        candidates.append(y)  # rate-tight, budget slack
        for j in range(k):
            coupling = mats.lambda_masked[j, k]
            yj = (scn.p0 - need) / (growth * coupling + 1.0)
            if yj >= 0:
                y = np.zeros(k + 1)
                y[j] = yj
                y[k] = scn.p0 - yj
                candidates.append(y)
    if not candidates:
        return None, None
    values = [weighted_sum_power(mats, y) for y in candidates]
    best = int(np.argmax(values))
    return values[best], candidates[best]


def simplex_grid_best_rate(mats, scn, steps=2000):
    """Fine grid over the two-decoder power split at full budget."""
    assert mats.n_id == 2
    k = mats.n_eh
    best = -1.0
    for i in range(steps + 1):
        y = np.zeros(k + 2)
        y[k] = scn.p0 * i / steps
        y[k + 1] = scn.p0 - y[k]
        best = max(best, sum_rate(mats, scn.sigma2, y))
    return best


def interference_free_rate_bound(mats, scn):
    """Sum-rate ceiling sum_m log2(1 + g_m P0 / sigma2_m): every decoder gets
    the whole budget and sees no interference.  No allocation within the
    budget can exceed it, so a floor above it is unattainable."""
    snr = mats.g_id * scn.p0 / np.asarray(scn.sigma2)
    return float(np.log2(1.0 + snr).sum())


def achieved_sinr(mats, scn, y):
    out = []
    for m in range(mats.n_id):
        g, slot = mats.g_id[m], mats.n_eh + m
        sig = float(g * y[slot])
        den = float((g * mats.lambda_masked[slot]) @ y) + scn.sigma2[m]
        out.append(sig / den)
    return np.array(out)

"""glppm.ks against SciPy: its survival function has the bits of
``np.clip(scipy.stats.kstwo.sf(d, n), 0, 1)`` on every branch it takes."""

import numpy as np
import pytest
from scipy.stats import kstwo

from glppm import ks

from oracles import same_bits

# the branch of Simard & L'Ecuyer's choice that kstwo.sf(d, n) takes, as
# SciPy 1.17.1 makes it, and the helpers that branch calls
BRANCHES = {
    "nan": (),
    "d >= 1": (),
    "nd <= 0.5": (),
    "nd <= 1, n <= 140": (),
    "nd <= 1, n > 140": ("_log_nfactorial_div_n_pow_n",),
    "nd >= n - 1": (),
    "d >= 0.5": ("smirnov",),
    "Durbin, n <= 140": ("_kolmogn_DMTW",),
    "Pomeranz": ("_kolmogn_Pomeranz",),
    "smirnov, n <= 140": ("smirnov",),
    "nd^2 >= 370": (),
    "nd^2 >= 2.2": ("smirnov",),
    "Durbin, n > 140": ("_kolmogn_DMTW",),
    "Pelz-Good": ("_kolmogn_PelzGood",),
    "Pelz-Good, q underflow": ("_kolmogn_PelzGood",),
}


def branch(d: float, n: int) -> str:
    if np.isnan(d):
        return "nan"
    if d >= 1.0:
        return "d >= 1"
    t = n * d
    if t <= 0.5:
        return "nd <= 0.5"
    if t <= 1.0:
        return "nd <= 1, n <= 140" if n <= 140 else "nd <= 1, n > 140"
    if t >= n - 1:
        return "nd >= n - 1"
    if d >= 0.5:
        return "d >= 0.5"
    nd2 = t * d
    if n <= 140:
        return "Durbin, n <= 140" if nd2 <= 0.754693 else "Pomeranz" if nd2 <= 4 else "smirnov, n <= 140"
    if nd2 >= 370.0:
        return "nd^2 >= 370"
    if nd2 >= 2.2:
        return "nd^2 >= 2.2"
    if n <= 100000 and n * d**1.5 <= 1.4:
        return "Durbin, n > 140"
    # exp(-pi^2 / (8 n d^2)) underflows below exp(-708)
    return "Pelz-Good, q underflow" if -np.pi**2 / 8 / (n * d * d) < -708 else "Pelz-Good"


# (d, n) cases, at least one per branch, and cases at its edges
CASES = [
    (np.nan, 10), (-np.nan, 300),
    (1.0, 1), (1.0, 5), (1.0, 500),
    (0.05, 10), (0.001, 10), (0.5, 1), (0.5 / 3, 3), (1e-4, 1000),
    (0.07, 10), (1 / 140, 140), (0.9, 1), (0.75, 1),
    (0.003, 300), (0.8 / 5000, 5000), (1 / 141, 141),
    (0.6, 2), (0.95, 20), (1 - 1e-12, 50),
    (0.6, 20), (0.5, 10), (0.7, 140),
    (0.1, 50), (0.12, 50), (0.07, 140),
    (0.2, 50), (0.15, 100), (0.25, 60),
    (0.35, 50), (0.4, 30), (0.27, 140),
    (0.3, 5000), (0.45, 2000),
    (0.05, 1000), (0.1, 250), (0.004, 200000),
    (0.03, 200), (0.01, 1000), (0.005, 20000), (0.002, 100000),
    (0.02, 1000), (0.04, 500), (0.002, 200000), (0.001, 300000),
    (5e-5, 200000), (2e-5, 300000),
]


def reference(d: float, n: int) -> float:
    return float(np.clip(kstwo.sf(d, n), 0.0, 1.0))


def test_every_branch_has_a_case():
    assert {branch(d, n) for d, n in CASES} == set(BRANCHES)


@pytest.mark.parametrize("d, n", CASES, ids=[f"{branch(d, n)}: n={n}, d={d:.6g}" for d, n in CASES])
def test_sf_is_kstwo_sf_bit_for_bit(monkeypatch, d, n):
    # the helpers that the case calls are the ones of its branch, and the
    # q-underflow return of Pelz-Good is its 0.0 before any sum
    calls = []

    def recording(name, fn):
        def call(*args):
            out = fn(*args)
            calls.append((name, out))
            return out

        return call

    names = {name for helpers in BRANCHES.values() for name in helpers}
    for name in names:
        monkeypatch.setattr(ks, name, recording(name, getattr(ks, name)))
    got = ks.sf(np.float64(d), n)
    label = branch(d, n)
    assert tuple(name for name, _ in calls) == BRANCHES[label]
    if label.startswith("Pelz-Good"):
        assert (calls[0][1] == 0.0) == label.endswith("underflow")
    assert type(got) is float
    assert same_bits(got, reference(d, n))


def test_sf_is_kstwo_sf_on_a_grid():
    # a log grid of d from 1/(4n) to 1.1 at sizes on both sides of 140; the
    # cases above reach past n = 100 000, where a smirnov call takes tens of ms
    ns = [1, 2, 3, 7, 20, 64, 139, 140, 141, 400, 3000, 20000]
    got, want = [], []
    for n in ns:
        for d in np.geomspace(0.25 / n, 1.1, 40):
            got.append(ks.sf(d, n))
            want.append(reference(d, n))
    assert same_bits(np.array(got), np.array(want))

"""A 40-digit oracle for the entropy quantities of the float kernels.

The oracle takes the float input matrices as exact and recomputes, with
mpmath's ``eigh`` at 40 significant digits, the von Neumann entropy S(rho),
the relative entropy S(rho||sigma) and sigma's cluster weights
q_j = Tr(rho Q_j) and p_tilde_j = Tr(sigma Q_j).  Its clusters, support and
divergence rules are the package's (``CLUSTER_TOL``, ``SUPPORT_EPS``,
``OVERLAP_EPS``); at 40 digits its own rounding is far below anything
asserted here.  It is first checked against closed forms, then it referees
the float values on the first trials of ``klein``, ``luders`` and ``minimal``.

Forward-error bounds (first order in eta).  LAPACK's Hermitian eigensolver
is backward stable: the float eigenpairs of a d x d matrix A are the exact
eigenpairs of A + E with ||E||_2 <= p(d) u ||A||_2, u = eps/2 the unit
roundoff and p(d) a modest function of d (Higham, *Accuracy and Stability of
Numerical Algorithms*, 2nd ed., Sec. 1.13 and 2.2; LAPACK Users' Guide,
Sec. 4.7).  Take p(d) = 2d; a density has ||A||_2 <= 1, so
eta = d eps bounds ||E||_2.  It also bounds the rounding of one quadratic
form w† A w or one trace Tr(A B) that the kernels form from such operators
(sums of d products, within about d u each).

* S(rho).  By Weyl each eigenvalue r moves by at most eta.  The function
  -x log x has derivative -(1 + log x), and on [0, eta] it changes by at
  most eta (1 + |log eta|).  With L the largest of |log r| over rho's
  supported eigenvalues and |log eta|, so |dS(rho)| <= d eta (1 + L).
* S(rho||sigma) = Tr rho (log rho - log sigma), finite.  Perturbing rho by
  E changes it by Tr E (log rho - log sigma + I) <= ||E||_2 ||X||_1 <=
  eta d (1 + 2L), where L now also covers |log s| over sigma's supported
  eigenvalues s.  Perturbing sigma by F changes it by
  -Tr rho Dlog(sigma)[F] = -int_0^inf Tr rho (sigma + t)^-1 F (sigma + t)^-1 dt,
  at most ||rho||_1 ||F||_2 int_0^inf (s_min + t)^-2 dt = eta / s_min,
  s_min the smallest supported eigenvalue of sigma.  In all,
  |dS(rho||sigma)| <= eta (d (1 + 2L) + 1 / s_min).
* p_tilde_j = Tr sigma Q_j, the sum of the d_j eigenvalues of cluster j:
  each moves by at most eta (Weyl), and each of its d_j quadratic forms
  rounds by at most eta more, so |dp_tilde_j| <= 2 d_j eta.
* q_j = Tr rho Q_j.  By Davis and Kahan's sin-theta theorem the computed
  eigenprojection moves by ||dQ_j||_2 <= sqrt(2) eta / g_j, g_j the gap from
  cluster j to the rest of sigma's spectrum; with ||rho||_1 = 1 and the
  rounding of its d_j diagonal terms, |dq_j| <= eta (sqrt(2) / g_j + d_j).

The bounds are first order.  The terms left out are smaller by a factor
eta / g_j or eta / s_min; clusters lie more than ``CLUSTER_TOL`` apart, so
that factor is below 2e-7 at d <= 8.  The bounds depend only on the operators,
never on the float results, so they cannot be tuned to a kernel.
"""

import math

import numpy as np
import pytest
from mpmath import mp

import seqmeas.entropy as ent
import seqmeas.harness as hn
import seqmeas.quantum as qm

DIGITS = 40
EPS = float(np.finfo(float).eps)
#: first trials of each check that the oracle referees
TRIALS = 12
#: an exact orthogonal matrix: every product with a dyadic diagonal is exact in binary
HADAMARD_4 = np.array([[1, 1, 1, 1], [1, -1, 1, -1], [1, 1, -1, -1], [1, -1, -1, 1]]) / 2.0


def eigh(a):
    """Ascending eigenvalues and eigenvector columns of a float matrix taken exactly."""
    e, v = mp.eigh(mp.matrix(np.asarray(a, dtype=complex).tolist()))
    order = sorted(range(len(e)), key=lambda k: e[k])
    return [e[k] for k in order], [v[:, k] for k in order]


def clusters(values):
    """Index runs of ascending values whose consecutive gaps are at most ``CLUSTER_TOL``."""
    runs = [[0]]
    for k in range(1, len(values)):
        if values[k] - values[k - 1] > qm.CLUSTER_TOL:
            runs.append([])
        runs[-1].append(k)
    return runs


def inner(x, a, y):
    """x† A y for mpmath column vectors and a float matrix."""
    n = len(x)
    return mp.fsum(mp.conj(x[i]) * complex(a[i, j]) * y[j] for i in range(n) for j in range(n))


def oracle(rho_m, sigma_m) -> dict:
    """S(rho), S(rho||sigma), sigma's cluster degeneracies, q and p_tilde at 40 digits,
    and each quantity's forward-error bound for the float kernels."""
    d = rho_m.shape[0]
    eta = d * EPS
    with mp.workdps(DIGITS):
        r, v = eigh(rho_m)
        s, w = eigh(sigma_m)
        overlap = [[abs(mp.fsum(mp.conj(va[k]) * wb[k] for k in range(d))) ** 2 for wb in w]
                   for va in v]
        supported = [a for a in range(d) if r[a] > ent.SUPPORT_EPS]
        s_zero = [b for b in range(d) if s[b] <= ent.SUPPORT_EPS]
        s_rho = -mp.fsum(x * mp.log(x) for x in r if x > 0)
        if any(overlap[a][b] > ent.OVERLAP_EPS for a in supported for b in s_zero):
            rel = math.inf
        else:
            rel = mp.fsum(r[a] * mp.log(r[a]) for a in supported) - mp.fsum(
                r[a] * overlap[a][b] * mp.log(s[b])
                for a in supported for b in range(d) if b not in s_zero
            )
        runs = clusters(s)
        q = [mp.fsum(inner(w[b], rho_m, w[b]).real for b in run) for run in runs]
        p_tilde = [mp.fsum(s[b] for b in run) for run in runs]
        gaps = [min([abs(s[b] - s[c]) for b in run for c in range(d) if c not in run] or [1])
                for run in runs]
        log_r = max([abs(mp.log(r[a])) for a in supported] + [abs(math.log(eta))])
        s_support = [s[b] for b in range(d) if b not in s_zero]
        log_rs = max([log_r] + [abs(mp.log(x)) for x in s_support])
        bounds = {
            "s_rho": d * eta * (1 + log_r),
            "rel": eta * (d * (1 + 2 * log_rs) + 1 / min(s_support, default=1)),
            "q": [eta * (math.sqrt(2) / g + len(run)) for g, run in zip(gaps, runs)],
            "p_tilde": [2 * len(run) * eta for run in runs],
        }
    return {
        "s_rho": s_rho, "rel": rel, "degeneracies": [len(run) for run in runs],
        "q": q, "p_tilde": p_tilde, "bounds": bounds,
    }


def float_values(rho, sigma) -> dict:
    report = ent.entropy_report(rho, sigma)
    m = report.minimality
    return {"s_rho": report.s_rho, "rel": report.rel_entropy,
            "degeneracies": m.degeneracies.tolist(), "q": m.q, "p_tilde": m.p_tilde}


def errors(got: dict, want: dict) -> dict:
    """Per quantity, the largest |float - oracle| over its clusters and the largest ratio
    of |float - oracle| to its bound; the relative entropy only when it is finite."""
    keys = ["s_rho", "q", "p_tilde"] + ([] if want["rel"] == math.inf else ["rel"])
    out = {}
    with mp.workdps(DIGITS):
        for key in keys:
            err = [abs(mp.mpf(float(g)) - o)
                   for g, o in zip(np.atleast_1d(got[key]), np.atleast_1d(want[key]))]
            ratios = [e / b for e, b in zip(err, np.atleast_1d(want["bounds"][key]))]
            out[key] = (float(max(err)), float(max(ratios)))
    return out


def density(eigenvalues, u) -> qm.DensityOperator:
    return qm.DensityOperator(u @ np.diag(np.asarray(eigenvalues, dtype=float)) @ u.T)


class TestClosedForms:
    """The oracle against values known in closed form, to far below a float's resolution."""

    def test_counterexample_entropy(self):
        with mp.workdps(DIGITS):
            closed = -mp.fsum(x * mp.log(x) for x in (mp.mpf(n) / 16 for n in (1, 3, 3, 9)))
            assert mp.nstr(closed, 20) == "1.1246702892376167006"
            rotated = density(np.array([3, 1, 9, 3]) / 16, HADAMARD_4)  # every entry exact
            assert abs(oracle(rotated.matrix, rotated.matrix)["s_rho"] - closed) < mp.mpf(10) ** -35
            # the package's sigma holds 3/16 and 9/16 one ulp low, which moves S(sigma) by ~1 ulp
            _, sigma = ent.counterexample_pair()
            assert abs(oracle(sigma.matrix, sigma.matrix)["s_rho"] - closed) < 4 * EPS

    @pytest.mark.parametrize("p, q", [
        ([0, 1, 5, 10], [3, 3, 2, 8]),
        ([0, 2, 1, 5, 3, 1, 0, 4], [1, 1, 2, 2, 3, 3, 2, 2]),
    ], ids=["d4", "d8"])
    def test_commuting_pairs(self, p, q):
        """S(rho||sigma) = sum p log(p/q) in a common eigenbasis, with zeros in p and
        repeated values in q; a zero of q under a positive p diverges.  The spectra are
        sixteenths and the basis is built from the Hadamard matrix, so every entry is exact."""
        u = HADAMARD_4 if len(p) == 4 else np.kron(HADAMARD_4, [[0.0, 1.0], [1.0, 0.0]])
        p, q = np.array(p) / 16.0, np.array(q) / 16.0
        with mp.workdps(DIGITS):
            closed = mp.fsum(mp.mpf(a) * mp.log(mp.mpf(a) / mp.mpf(b)) for a, b in zip(p, q) if a)
            got = oracle(density(p, u).matrix, density(q, u).matrix)["rel"]
            assert abs(got - closed) < mp.mpf(10) ** -35
        q[1], q[2] = 0.0, q[2] + q[1]
        assert oracle(density(p, u).matrix, density(q, u).matrix)["rel"] == math.inf


def trial_pairs(name: str, trials: int = TRIALS):
    """(rho, sigma) of the first ``trials`` acceptance trials of ``name``; sigma is the
    Lueders image of rho for ``luders`` and ``minimal``, as their evaluation makes it."""
    config = hn.acceptance_config()
    spec = hn.CHECK_SPECS[name]
    for t in range(trials):
        inputs, _ = spec.generate(hn.trial_rng(config.seed, spec.rng_alias or name, t), config, t)
        rho = inputs["rho"]
        yield rho, inputs["sigma"] if name == "klein" else qm.luders_channel(rho, inputs["family"])


@pytest.mark.parametrize("name", ["klein", "luders", "minimal"])
def test_float_values_within_forward_error_bounds(name):
    finite = 0
    for rho, sigma in trial_pairs(name):
        want = oracle(rho.matrix, sigma.matrix)
        got = float_values(rho, sigma)
        assert got["degeneracies"] == want["degeneracies"]
        assert math.isinf(got["rel"]) == (want["rel"] == math.inf)
        worst = errors(got, want)
        finite += "rel" in worst
        assert all(ratio <= 1.0 for _, ratio in worst.values()), worst
    assert finite >= TRIALS // 2

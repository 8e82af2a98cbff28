"""A 40-digit oracle for the entropy quantities of the float kernels.

The oracle takes the float input matrices as exact and recomputes, with
mpmath's ``eigh`` at 40 significant digits, the von Neumann entropies S(rho)
and S(sigma), the relative entropy S(rho||sigma), the minimal-pair identity
residual |S(rho||sigma) - (S(sigma) - S(rho))| and sigma's cluster weights
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
* S(sigma), for sigma the float Lueders image of ``luders`` and ``minimal``
  (or klein's second operator), taken as exact: as S(rho), with L over
  sigma's supported eigenvalues, |dS(sigma)| <= d eta (1 + L).
* The identity residual |S(rho||sigma) - (S(sigma) - S(rho))|, finite, as a
  whole: the absolute value moves by at most as much as its argument, the
  three entropies by their bounds above, and the two subtractions round by
  u |S(sigma) - S(rho)| and u |identity|, so
  |d identity| <= B_rel + B_rho + B_sigma + u (|S(sigma) - S(rho)| + |identity|),
  the last two terms at the exact values, first order.

The bounds are first order.  The terms left out are smaller by a factor
eta / g_j or eta / s_min; clusters lie more than ``CLUSTER_TOL`` apart, so
that factor is below 2e-7 at d <= 8.  The bounds depend only on the operators,
never on the float results, so they cannot be tuned to a kernel.

The sequential model.  A spy records the float inputs of
``build_sequential_model`` (rho0, the two families' columns V and W, U,
p_tilde and any supplied p) and the oracle takes them as exact, as the
Lueders oracle below does, with P_i = V_i V_i† and Q_j = W_j W_j† for the
column blocks of outcomes i and j.  At 40 digits it computes
Pi(j|i) = Tr(Q_j U P_i U†), the cluster sum of |W†UV|^2, x(i) = p(i)/d(i) with
p(i) = Tr(rho0 P_i) unless supplied (zero where the model zeroes x exactly),
x_tilde(j) = p_tilde(j)/d_tilde(j), the J-equation residuals
|sum_ij Pi(j|i) x_tilde(j) - 1| and |sum_ij Pi(j|i) x(i) - 1| (the
regularised sums of ``stat_model``, whose ratios cancel), and for
``jarzynski`` <exp(-beta w)> = sum_ij Pi(j|i) x(i) exp(-beta (F_j - E_i)) and
exp(-beta dF) = Z_1/Z_0, Z = sum_k d_k exp(-beta E_k), with the protocol's
float energies and beta taken as exact too.  ``chain`` evaluates the very
models of ``jcheck`` (one trial stream), so the ``jcheck`` trials cover both.
The bounds are first order in u = eps/2.  A complex inner product of length
n rounds by at most c_n = (n + 2) u times sum |a_k||b_k| (Higham Sec. 3.6),
and for a unitary U the entrywise modulus has | |U| |_2 <= |U|_F = sqrt(d).

* Pi(j|i).  The kernel forms M = (W†U)V, off by dM <= 2 c_d |W†||U||V|, so
  the cluster sum of |M|^2 moves by
  2 sum |M||dM| <= 4 c_d |M_ji|_F |W_j|_F | |U| |_2 |V_i|_F, and
  |M_ji|_F = sqrt(Pi) <= sqrt(d), plus (d_i + d_j + 3) u Pi for squaring and
  summing: B_Pi = 4 (d + 2) d u sqrt(d_i d_j) + (d_i + d_j + 3) u Pi.
* The forward residual sums k_1 k_2 terms Pi x_tilde x / x (or x_tilde Pi
  where x = 0), each rounded by at most 4u with x_tilde's own rounding, and
  subtracts one: B_J = sum_ij B_Pi x_tilde(j) + (k_1 k_2 + 5) u S, with
  S = sum_ij Pi x_tilde.
* The reverse residual's terms are Pi x_tilde x / x_tilde: x_tilde cancels,
  but x(i) = p(i)/d(i) carries the error of p(i) = sum_{c in i} Re M_cc,
  M = (V† rho0) V.  The row v_c† rho0 is off by c_d |v_c|^T |rho0| and its
  product with v_c rounds by c_d sum_a |(rho0 v_c)_a| |v_ac| <= c_d |rho0 v_c|_2,
  so M_cc is off by c_d (Y_cc + |rho0 v_c|_2), Y = |V|^T |rho0| |V|; the
  cluster sum adds (d_i - 1) u Tr Y_ii, as |M_cc| <= Y_cc.  So
  B_x(i) = (c_d sum_{c in i} (Y_cc + |rho0 v_c|_2) + (d_i - 1) u Tr Y_ii) / d_i and
  B_rev = sum_ij (B_Pi x(i) + Pi B_x(i) [x(i) > 0]) + (k_1 k_2 + 5) u S~,
  with S~ = sum_ij Pi x.
* <exp(-beta w)>: each term Pi x e, e = exp(-beta w_ij), rounds in
  x = p/d, in the product, in w = F_j - E_i and beta w (an exponent off by
  2 u beta |w|) and in exp: B_lhs = sum_ij e (B_Pi x + (2 beta |w| + 5 + k_1 k_2) u Pi x).
* exp(-beta dF) is computed as (z_1/z_0) exp(x), x = beta (E_min - F_min),
  with shifted sums z = sum_k d_k exp(-y_k), y_k = beta (E_k - E_min) >= 0.
  Each exponent rounds by 2 u y_k and each exp and product by 3u more, so a
  term moves by (2 y_k + 3) u relatively; since y e^-y <= 1/e and z >= 1,
  with the k - 1 additions z is off by (2 d / e + k + 2) u relatively.  The
  exponent x is off by 2 u |x|, exp(x) then by (2 |x| + 2) u, and the quotient
  and the product by u each: B_rhs = rhs u (sum over both of (2 d / e + k + 2)
  + 2 |x| + 4).  The former exp(log z_1 - beta F_min - log z_0 + beta E_min)
  rounds its additions at the size of beta |E_min| and exceeds this bound.

The Lueders image.  On the first trials of ``luders`` and ``minimal`` (rho and
the family) and of ``jcheck`` (each model's rho0 and first family), the oracle
takes rho and the family's float columns V as exact, with P_i = V_i V_i† for
the columns V_i of outcome i and M = V† rho V.  At 40 digits it computes the
image sum_i P_i rho P_i = V (B o M) V†, B = C^T C the block mask of the one-hot
clusters C, the probabilities p_i = Tr(rho P_i), the sums of Re M_cc over the
columns of i, and the repeatability block norm r_i = |M_ii - (p_i/d_i) I|_F,
the Frobenius norm of P_i rho P_i - (p_i/d_i) P_i = V_i (M_ii - (p_i/d_i) I) V_i†
for orthonormal columns.  The bounds are
componentwise and first order: a product of length n is off by at most
g_n = (n + 2) u times the product of the moduli (Higham Sec. 3.5).  With
Y = |V|^T |rho| |V|, W_i = |V_i| |V_i|^T and Z_i = |V_i| Y_ii |V_i|^T, both
kernels are covered, the stack kernel (P_i rounded from V_i V_i† by
(g_{d_i} + u) W_i, then P_i rho P_i and a sum over k outcomes) and the
isometry kernel (M, then V (B o M) V†: four products of length d):

* image: B_sigma = (4 g_d + (k + 1) u) sum_i Z_i + u |sigma|.  The stack
  kernel's factor is 2 g_d + 2 g_{d_i} + 2u plus (k - 1) u for the sum, the
  isometry kernel's 4 g_d; the last u |sigma| is the symmetrisation.
* p_i: B_p = 3 g_d Tr Y_ii.  The trace of rho P_i rounds by
  (g_d + g_{d_i} + (d + 1) u) Tr Y_ii, the diagonal of M by 2 g_d Tr Y_ii
  and its cluster sum by g_d Tr Y_ii more.
* r_i: B_r = 2 g_d |Y_ii|_F + (3 g_d Tr Y_ii + u p_i) / sqrt(d_i) + (d + 2) u r_i.
  M_ii is off by 2 g_d Y_ii and each diagonal level p_i/d_i by
  (3 g_d Tr Y_ii + u p_i) / d_i, a norm moves by at most the norm of the
  change, and the subtraction, the squared moduli, their two sums of at most
  d terms and the square root round r_i by (d + 2) u relatively.
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
        s_sigma = -mp.fsum(x * mp.log(x) for x in s if x > 0)
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
        log_s = max([abs(math.log(eta))] + [abs(mp.log(x)) for x in s_support])
        bounds = {
            "s_rho": d * eta * (1 + log_r),
            "s_sigma": d * eta * (1 + log_s),
            "rel": eta * (d * (1 + 2 * log_rs) + 1 / min(s_support, default=1)),
            "q": [eta * (math.sqrt(2) / g + len(run)) for g, run in zip(gaps, runs)],
            "p_tilde": [2 * len(run) * eta for run in runs],
        }
        identity = math.inf if rel == math.inf else abs(rel - (s_sigma - s_rho))
        if rel != math.inf:
            bounds["identity"] = (bounds["rel"] + bounds["s_rho"] + bounds["s_sigma"]
                                  + EPS / 2 * (abs(s_sigma - s_rho) + identity))
    return {
        "s_rho": s_rho, "s_sigma": s_sigma, "rel": rel, "identity": identity,
        "degeneracies": [len(run) for run in runs], "q": q, "p_tilde": p_tilde,
        "bounds": bounds,
    }


def float_values(rho, sigma) -> dict:
    report = ent.entropy_report(rho, sigma)
    m = report.minimality
    return {"s_rho": report.s_rho, "s_sigma": report.s_sigma, "rel": report.rel_entropy,
            "identity": report.residuals.get("minimal_identity", math.inf),
            "degeneracies": m.degeneracies.tolist(), "q": m.q, "p_tilde": m.p_tilde}


def errors(got: dict, want: dict) -> dict:
    """Per quantity, the largest |float - oracle| over its clusters and the largest ratio
    of |float - oracle| to its bound; the relative entropy and the identity residual only
    when the relative entropy is finite."""
    finite = [] if want["rel"] == math.inf else ["rel", "identity"]
    keys = ["s_rho", "s_sigma", "q", "p_tilde"] + finite
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
    """S(rho), S(sigma), S(rho||sigma), q, p_tilde and the identity residual; for ``luders``
    and ``minimal`` the identity is the check's own ``identity_residual``."""
    finite = 0
    config = hn.acceptance_config()
    for t, (rho, sigma) in enumerate(trial_pairs(name)):
        want = oracle(rho.matrix, sigma.matrix)
        got = float_values(rho, sigma)
        if name != "klein":
            inputs, _ = hn.CHECK_SPECS[name].generate(hn.trial_rng(config.seed, name, t), config, t)
            residual = hn.CHECK_SPECS[name].evaluate(**inputs)["identity_residual"]
            assert float(residual).hex() == float(got["identity"]).hex()
        assert got["degeneracies"] == want["degeneracies"]
        assert math.isinf(got["rel"]) == (want["rel"] == math.inf)
        assert math.isinf(got["identity"]) == (want["identity"] == math.inf)
        worst = errors(got, want)
        finite += "rel" in worst
        assert all(ratio <= 1.0 for _, ratio in worst.values()), worst
    assert finite >= TRIALS // 2


def exact(a) -> np.ndarray:
    """A float array as an object array of mpmath numbers, each the float's exact value."""
    a = np.asarray(a)
    kind = mp.mpc if np.iscomplexobj(a) else mp.mpf
    return np.array([kind(z) for z in a.ravel().tolist()], dtype=object).reshape(a.shape)


def model_oracle(inputs: dict, zeroed) -> dict:
    """Pi, x, x_tilde, both J-equation residuals and their bounds at 40 digits, from the
    recorded float inputs of one ``build_sequential_model`` call taken as exact.

    ``zeroed`` marks the first outcomes whose x the model sets to exactly 0 after the build.
    """
    firsts, seconds = inputs["first_family"], inputs["second_family"]
    d, k1, k2 = firsts.dim, len(firsts), len(seconds)
    d1, d2 = firsts.degeneracies.tolist(), seconds.degeneracies.tolist()
    cols1, cols2 = ([np.flatnonzero(row) for row in f.clusters] for f in (firsts, seconds))
    unit = EPS / 2
    rho0 = inputs["rho0"].matrix
    av = np.abs(firsts.vectors)
    y = np.diagonal(av.T @ np.abs(rho0) @ av)
    rv = np.linalg.norm(rho0 @ firsts.vectors, axis=0)
    b_x = [((d + 2) * (y[cs] + rv[cs]).sum() + (n - 1) * y[cs].sum()) * unit / n
           for cs, n in zip(cols1, d1)]
    with mp.workdps(DIGITS):
        v, w = exact(firsts.vectors), exact(seconds.vectors)
        m2 = np.vectorize(lambda z: abs(z) ** 2, otypes=[object])(
            np.conj(w.T) @ exact(inputs["u"].matrix) @ v)  # |W†UV|^2
        pi = [[mp.fsum(m2[np.ix_(cj, ci)].ravel()) for ci in cols1] for cj in cols2]
        if inputs.get("probabilities") is None:
            m = np.conj(v.T) @ exact(rho0) @ v  # V† rho0 V
            probs = [mp.fsum(m[c, c].real for c in cs) for cs in cols1]
            probs = [min(max(x, 0), 1) for x in probs]  # the float kernel's clamp
        else:
            probs = exact(inputs["probabilities"]).tolist()
        x = [0 if z else pr / n for pr, n, z in zip(probs, d1, zeroed)]
        x_tilde = [mp.mpf(pt) / n for pt, n in zip(np.asarray(inputs["p_tilde"]).tolist(), d2)]
        b_pi = [[(4 * (d + 2) * d * math.sqrt(n1 * n2) + (n1 + n2 + 3) * pi[j][i]) * unit
                 for i, n1 in enumerate(d1)] for j, n2 in enumerate(d2)]
        pairs = [(i, j) for i in range(k1) for j in range(k2)]
        s = mp.fsum(pi[j][i] * x_tilde[j] for i, j in pairs)
        s_rev = mp.fsum(pi[j][i] * x[i] for i, j in pairs)
        bounds = {
            "pi": b_pi,
            "j_residual": mp.fsum(b_pi[j][i] * x_tilde[j] for i, j in pairs)
            + (k1 * k2 + 5) * unit * s,
            "j_reverse_residual": mp.fsum(
                b_pi[j][i] * x[i] + (pi[j][i] * b_x[i] if x[i] else 0) for i, j in pairs
            ) + (k1 * k2 + 5) * unit * s_rev,
        }
        return {"pi": pi, "x": x, "j_residual": abs(s - 1), "j_reverse_residual": abs(s_rev - 1),
                "bounds": bounds}


def work_oracle(model: dict, inputs: dict, result, beta: float) -> dict:
    """<exp(-beta w)> and exp(-beta dF) at 40 digits with their bounds, from ``model_oracle``'s
    values, the recorded families' degeneracies and the protocol's float energies and beta
    taken as exact."""
    e0, e1 = (exact(e).tolist() for e in (result.energies_first, result.energies_second))
    d0, d1 = (inputs[key].degeneracies.tolist() for key in ("first_family", "second_family"))
    pi, x, b_pi = model["pi"], model["x"], model["bounds"]["pi"]
    unit = EPS / 2
    with mp.workdps(DIGITS):
        lhs = b_lhs = 0
        for i, ei in enumerate(e0):
            for j, fj in enumerate(e1):
                e = mp.exp(-beta * (fj - ei))
                lhs += pi[j][i] * x[i] * e
                b_lhs += e * (b_pi[j][i] * x[i] + (2 * beta * abs(fj - ei) + 5 + len(e0) * len(e1))
                              * unit * pi[j][i] * x[i])
        z0, z1 = (mp.fsum(n * mp.exp(-beta * ek) for n, ek in zip(ns, es))
                  for ns, es in ((d0, e0), (d1, e1)))
        rhs = z1 / z0
        x = beta * (min(e0) - min(e1))
        b_rhs = rhs * unit * (sum(2 * sum(ns) / math.e + len(ns) + 2 for ns in (d0, d1))
                              + 2 * abs(x) + 4)
    return {"lhs": lhs, "rhs": rhs, "bounds": {"lhs": b_lhs, "rhs": b_rhs}}


def model_trials(name: str, monkeypatch, trials: int = TRIALS):
    """Per trial of ``name`` (``jcheck`` or ``jarzynski``): the recorded float inputs of its
    ``build_sequential_model`` call, the float values the check reads, and for
    ``jarzynski`` the protocol's result and beta."""
    calls = []
    original = qm.build_sequential_model

    def spy(rho0, first_family, u, second_family, p_tilde, probabilities=None):
        calls.append({"rho0": rho0, "first_family": first_family, "u": u,
                      "second_family": second_family, "p_tilde": p_tilde,
                      "probabilities": probabilities})
        return original(rho0, first_family, u, second_family, p_tilde, probabilities)

    monkeypatch.setattr(qm, "build_sequential_model", spy)
    config = hn.acceptance_config()
    spec = hn.CHECK_SPECS[name]
    for t in range(trials):
        inputs, _ = spec.generate(hn.trial_rng(config.seed, spec.rng_alias or name, t), config, t)
        if name == "jcheck":
            model, result = inputs["model"], None
            floats = hn.evaluate_jcheck(model)
        else:
            result = qm.two_point_work_protocol(**inputs)
            model, floats = result.model, {"lhs": result.lhs, "rhs": result.rhs}
        (call,) = calls
        calls.clear()
        yield call, model, {"pi": model.pi, **floats}, result, inputs.get("beta")


def model_errors(name: str, monkeypatch, trials: int = TRIALS) -> dict:
    """Per quantity, the largest |float - oracle| and largest ratio of it to its bound
    over the first ``trials`` trials of ``name``."""
    worst: dict = {}
    for call, model, got, result, beta in model_trials(name, monkeypatch, trials):
        want = model_oracle(call, (model.x == 0.0).tolist())
        if result is not None:
            work = work_oracle(want, call, result, beta)
            want = {**want, **work, "bounds": {**want["bounds"], **work["bounds"]}}
        with mp.workdps(DIGITS):
            for key, value in got.items():
                errs = [abs(mp.mpf(float(g)) - o) for g, o in
                        zip(np.ravel(value), np.ravel(np.array(want[key], dtype=object)))]
                bound = np.ravel(np.array(want["bounds"][key], dtype=object))
                err, ratio = float(max(errs)), float(max(e / b for e, b in zip(errs, bound)))
                old = worst.get(key, (0.0, 0.0))
                worst[key] = (max(old[0], err), max(old[1], ratio))
    return worst


@pytest.mark.parametrize("name", ["jcheck", "jarzynski"])
def test_model_values_within_forward_error_bounds(name, monkeypatch):
    """Pi and both J-equation residuals of ``jcheck`` (and so ``chain``), and the two sides
    of Jarzynski's equality, each within its first-order bound of the 40-digit value."""
    worst = model_errors(name, monkeypatch)
    keys = {"jcheck": {"pi", "j_residual", "j_reverse_residual"}, "jarzynski": {"pi", "lhs", "rhs"}}
    assert set(worst) == keys[name]
    assert all(ratio <= 1.0 for _, ratio in worst.values()), worst


def luders_oracle(rho: qm.DensityOperator, family: qm.ProjectorFamily) -> dict:
    """The Lueders image, p_i and the repeatability block norms at 40 digits, from rho and
    the family's float columns taken as exact, with their componentwise bounds."""
    v, clusters = family.vectors, family.clusters
    d, k = v.shape[0], len(clusters)
    cols = [np.flatnonzero(row) for row in clusters]
    unit = EPS / 2

    def g(n):
        return (n + 2) * unit

    with mp.workdps(DIGITS):
        ve, vh = exact(v), np.conj(exact(v).T)
        m = vh @ exact(rho.matrix) @ ve
        image = ve @ np.where((clusters.T @ clusters).astype(bool), m, 0) @ vh
        probs = [mp.fsum(m[c, c].real for c in cs) for cs in cols]
        blocks = [m[np.ix_(cs, cs)] - p / len(cs) * np.eye(len(cs)) for p, cs in zip(probs, cols)]
        norms = [mp.sqrt(mp.fsum(abs(z) ** 2 for z in b.ravel())) for b in blocks]
    av = np.abs(v)
    y = av.T @ np.abs(rho.matrix) @ av
    tr_y = [y[cs, cs].sum() for cs in cols]
    z = [av[:, cs] @ y[np.ix_(cs, cs)] @ av[:, cs].T for cs in cols]
    sigma = np.abs(np.array(image.tolist(), dtype=complex))
    bounds = {
        "image": (4 * g(d) + (k + 1) * unit) * sum(z) + unit * sigma,
        "p": [3 * g(d) * t for t in tr_y],
        "block": [
            2 * g(d) * np.linalg.norm(y[np.ix_(cs, cs)])
            + (3 * g(d) * t + unit * float(p)) / math.sqrt(len(cs)) + (d + 2) * unit * float(r)
            for cs, t, p, r in zip(cols, tr_y, probs, norms)
        ],
    }
    return {"image": image, "p": probs, "block": norms, "bounds": bounds}


def luders_inputs(name: str, monkeypatch, trials: int = TRIALS):
    """(rho, family) of the first ``trials`` trials of ``name``: the inputs of a ``luders``
    or ``minimal`` trial, or a ``jcheck`` model's rho0 and first family."""
    if name == "jcheck":
        for call, *_ in model_trials(name, monkeypatch, trials):
            yield call["rho0"], call["first_family"]
        return
    config = hn.acceptance_config()
    for t in range(trials):
        inputs, _ = hn.CHECK_SPECS[name].generate(hn.trial_rng(config.seed, name, t), config, t)
        yield inputs["rho"], inputs["family"]


def luders_errors(name: str, monkeypatch, trials: int = TRIALS) -> dict:
    """Per quantity, the largest |float - oracle| and the largest ratio of it to its bound."""
    worst: dict = {}
    for rho, family in luders_inputs(name, monkeypatch, trials):
        want = luders_oracle(rho, family)
        got = {"image": qm.luders_channel(rho, family).matrix,
               "p": qm.outcome_probabilities(rho, family),
               "block": qm.assumption_holds(rho, family).weighted_residuals}
        with mp.workdps(DIGITS):
            for key, value in got.items():
                values = np.ravel(value)
                exact_values = np.ravel(np.array(want[key], dtype=object))
                errs = [abs((mp.mpc if np.iscomplexobj(values) else mp.mpf)(g) - o)
                        for g, o in zip(values.tolist(), exact_values)]
                bound = np.ravel(want["bounds"][key])
                err = float(max(errs))
                ratio = float(max(e / b if b else (0 if e == 0 else math.inf)
                                  for e, b in zip(errs, bound)))
                old = worst.get(key, (0.0, 0.0))
                worst[key] = (max(old[0], err), max(old[1], ratio))
    return worst


@pytest.mark.parametrize("name", ["luders", "minimal", "jcheck"])
def test_luders_values_within_forward_error_bounds(name, monkeypatch):
    """The Lueders image, the outcome probabilities and the repeatability block norms, each
    within its componentwise first-order bound of the 40-digit value."""
    worst = luders_errors(name, monkeypatch)
    assert set(worst) == {"image", "p", "block"}
    assert all(ratio <= 1.0 for _, ratio in worst.values()), worst

"""Abstract statistical model of two sequential measurements.

A model is a quintuple (I, J, Pi, x, x_tilde): two finite outcome sets, a
non-negative conditional matrix Pi(j|i) and non-negative weights x(i) and
x_tilde(j), the "abstract eigenvalues" of the first and second kind.  The
central normalisation axiom demands that both induced joint distributions,

    P(i,j)  = Pi(j|i) * x(i)        (forward)
    P~(j,i) = Pi(j|i) * x_tilde(j)  (reverse)

sum to one.  Everything downstream -- marginals, the J-equation, the
minimal case, the modified-Shannon-entropy chain -- is a pure function of a
model instance.  Natural logarithms throughout; entropies are in nats.

Weights are allowed to be exactly zero.  Expectation values of ratio
observables c(i,j)/x(i) are regularised by cancellation: at points with
x(i) = 0 the contribution is c(i,j)*Pi(j|i), never an explicit 0/0.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, replace

import numpy as np

from .errors import InconsistentModelError, InputError, ShapeError

#: tolerance for the two normalisation sums
NORMALISATION_TOL = 1e-10
#: magnitudes below this are treated as exact zeros before logarithms
ZERO_CLAMP = 1e-14


def _frozen_array(values, dtype=float) -> np.ndarray:
    arr = np.array(values, dtype=dtype)
    arr.setflags(write=False)
    return arr


@dataclass(frozen=True)
class SequentialModel:
    """The quintuple (I, J, Pi, x, x_tilde).

    ``pi`` has shape (n_second, n_first) with ``pi[j, i] = Pi(j|i)``;
    ``x`` has length n_first and ``x_tilde`` length n_second.  Construction
    only enforces shapes; the normalisation axiom is checked separately by
    :func:`validate_model` so that invalid models can be inspected.
    """

    pi: np.ndarray
    x: np.ndarray
    x_tilde: np.ndarray

    def __post_init__(self):
        pi = _frozen_array(self.pi)
        x = _frozen_array(self.x)
        x_tilde = _frozen_array(self.x_tilde)
        if pi.ndim != 2:
            raise ShapeError(f"pi must be a matrix, got ndim={pi.ndim}")
        if x.ndim != 1 or x_tilde.ndim != 1:
            raise ShapeError("x and x_tilde must be vectors")
        n_second, n_first = pi.shape
        if n_first == 0 or n_second == 0:
            raise ShapeError("outcome sets must be non-empty")
        if x.shape[0] != n_first:
            raise ShapeError(f"x has length {x.shape[0]}, expected {n_first}")
        if x_tilde.shape[0] != n_second:
            raise ShapeError(f"x_tilde has length {x_tilde.shape[0]}, expected {n_second}")
        object.__setattr__(self, "pi", pi)
        object.__setattr__(self, "x", x)
        object.__setattr__(self, "x_tilde", x_tilde)

    def __reduce__(self):
        return type(self), (self.pi, self.x, self.x_tilde)

    @property
    def n_first(self) -> int:
        return self.pi.shape[1]

    @property
    def n_second(self) -> int:
        return self.pi.shape[0]


@dataclass(frozen=True)
class MarginalSet:
    """Degeneracy marginals and the four probability marginals."""

    d: np.ndarray        # degeneracies over I
    d_tilde: np.ndarray  # degeneracies over J
    p: np.ndarray        # first-kind marginal of P
    q: np.ndarray        # second-kind marginal of P
    p_tilde: np.ndarray  # second-kind marginal of P~
    q_tilde: np.ndarray  # first-kind marginal of P~


@dataclass(frozen=True)
class RatioObservable:
    """Random variable X(i,j) = c(i,j)/x(i), stored by its numerator c.

    Keeping the numerator rather than the quotient makes the cancellation
    rule at x(i) = 0 exact algebra instead of NaN patching.
    """

    c: np.ndarray  # (n_first, n_second)

    def __post_init__(self):
        c = _frozen_array(self.c)
        if c.ndim != 2:
            raise ShapeError("numerator matrix must be two-dimensional")
        if not np.isfinite(c).all():
            raise InputError("numerator matrix must be finite")
        object.__setattr__(self, "c", c)


@dataclass(frozen=True)
class ConstraintViolation:
    constraint: str
    residual: float


def validate_model(model: SequentialModel) -> list[ConstraintViolation]:
    """Check the model axioms; return one violation per broken constraint.

    An empty list means the model is valid: all entries are non-negative and
    finite and both normalisation sums equal one within ``NORMALISATION_TOL``.
    """
    violations: list[ConstraintViolation] = []
    for name, arr in (("pi", model.pi), ("x", model.x), ("x_tilde", model.x_tilde)):
        if not np.isfinite(arr).all():
            violations.append(ConstraintViolation(f"{name}_finite", math.inf))
        elif arr.size and arr.min() < 0:
            violations.append(ConstraintViolation(f"{name}_nonnegative", float(-arr.min())))
    forward = float((model.pi * model.x[np.newaxis, :]).sum())
    reverse = float((model.pi * model.x_tilde[:, np.newaxis]).sum())
    if not math.isfinite(forward) or abs(forward - 1.0) > NORMALISATION_TOL:
        violations.append(ConstraintViolation("forward_normalisation", abs(forward - 1.0)))
    if not math.isfinite(reverse) or abs(reverse - 1.0) > NORMALISATION_TOL:
        violations.append(ConstraintViolation("reverse_normalisation", abs(reverse - 1.0)))
    return violations


def degeneracy_marginals(model: SequentialModel) -> tuple[np.ndarray, np.ndarray]:
    """Marginal sums of Pi: d(i) over the second index, d_tilde(j) over the first."""
    d = model.pi.sum(axis=0)
    d_tilde = model.pi.sum(axis=1)
    return d, d_tilde


def marginal_set(model: SequentialModel) -> MarginalSet:
    d, d_tilde = degeneracy_marginals(model)
    return MarginalSet(
        d=d,
        d_tilde=d_tilde,
        p=d * model.x,
        q=model.pi @ model.x,
        p_tilde=d_tilde * model.x_tilde,
        q_tilde=model.pi.T @ model.x_tilde,
    )


def expectation_regularized(model: SequentialModel, observable: RatioObservable) -> float:
    """Expectation of X(i,j) = c(i,j)/x(i) under the forward distribution.

    Points with x(i) > 0 contribute P(i,j)*c(i,j)/x(i); points with
    x(i) = 0 contribute c(i,j)*Pi(j|i) by the cancellation rule.
    """
    c = observable.c
    if c.shape != (model.n_first, model.n_second):
        raise ShapeError(
            f"numerator matrix has shape {c.shape}, expected {(model.n_first, model.n_second)}"
        )
    return _regularized(model.pi.T, model.x, c)


def _regularized(pi_t: np.ndarray, x: np.ndarray, c: np.ndarray) -> float:
    """<c(i,j)/x(i)>, ``c`` broadcast to ``pi_t[i, j] = Pi(j|i)``, cancelled where x(i) = 0."""
    c = np.broadcast_to(c, pi_t.shape)
    pos = x > 0.0
    zero = ~pos
    p_rows = pi_t[pos] * x[pos, np.newaxis]
    total = float((p_rows * c[pos] / x[pos, np.newaxis]).sum())  # an empty sum is 0.0
    return total + float((c[zero] * pi_t[zero]).sum())


def j_equation_residual(model: SequentialModel) -> float:
    """|<x_tilde(j)/x(i)> - 1|, the reverse normalisation residual; 0 for every valid model."""
    return abs(_regularized(model.pi.T, model.x, model.x_tilde) - 1.0)


def j_equation_reverse_residual(model: SequentialModel) -> float:
    """Same identity with the two measurements' roles swapped.

    The forward normalisation residual: it sums P~(j,i)*x(i)/x_tilde(j) over
    all pairs, with contribution x(i)*Pi(j|i) at points where x_tilde(j) = 0.
    Both residuals read the model's arrays: a NaN in x or x_tilde makes one NaN.
    """
    return abs(_regularized(model.pi, model.x_tilde, model.x) - 1.0)


def minimal_x_tilde(model: SequentialModel) -> np.ndarray:
    """The choice x_tilde(j) = q(j)/d_tilde(j), which makes p_tilde = q."""
    ms = marginal_set(model)
    degenerate_zero = ms.d_tilde <= 0.0
    if bool((degenerate_zero & (ms.q > 0.0)).any()):
        raise InconsistentModelError("q(j) > 0 requires d_tilde(j) > 0")
    out = np.zeros_like(ms.q)
    np.divide(ms.q, ms.d_tilde, out=out, where=~degenerate_zero)
    return out


def with_x_tilde(model: SequentialModel, x_tilde) -> SequentialModel:
    """Copy of the model with the second-kind weights replaced."""
    return replace(model, x_tilde=np.asarray(x_tilde, dtype=float))


def with_x(model: SequentialModel, x) -> SequentialModel:
    """Copy of the model with the first-kind weights replaced."""
    return replace(model, x=np.asarray(x, dtype=float))


def modified_shannon_entropy(p, d) -> float:
    """-sum_i p(i) log(p(i)/d(i)) in nats, with 0 log 0 = 0.

    ``p`` must be a non-negative probability vector summing to one and ``d``
    a positive degeneracy vector of the same length (d may be zero where p
    is zero; such terms contribute nothing).
    """
    p = np.asarray(p, dtype=float)
    d = np.asarray(d, dtype=float)
    if p.ndim != 1 or p.shape != d.shape:
        raise InputError("p and d must be vectors of equal length")
    if not (np.isfinite(p).all() and np.isfinite(d).all()):
        raise InputError("p and d must be finite")
    if p.size and p.min() < 0:
        raise InputError("negative probability entry")
    support = p > ZERO_CLAMP
    if bool((d[support] <= 0.0).any()):
        raise InputError("degeneracy must be positive wherever p > 0")
    ps = p[support]
    return float(-(ps * np.log(ps / d[support])).sum()) + 0.0  # normalise -0.0


@dataclass(frozen=True)
class ChainEntropies:
    """The three quantities of the entropy chain H(p) <= H(q) <= cross."""

    h_p: float
    h_q: float
    cross: float  # -sum_j q(j) log(p_tilde(j)/d_tilde(j)); may be +inf


def entropy_chain(model: SequentialModel) -> ChainEntropies:
    """Evaluate the entropy chain for a valid model.

    The cross term is +inf when some outcome has q(j) > 0 but
    p_tilde(j) = 0; terms with q(j) = 0 contribute nothing anywhere.
    """
    ms = marginal_set(model)
    h_p = modified_shannon_entropy(ms.p, ms.d)
    h_q = modified_shannon_entropy(ms.q, ms.d_tilde)
    return ChainEntropies(h_p=h_p, h_q=h_q, cross=_cross(ms, ms.p_tilde))


def _cross(ms: MarginalSet, p_tilde: np.ndarray) -> float:
    """-sum_j q(j) log(p_tilde(j)/d_tilde(j)) over q(j) > 0; +inf if such a p_tilde(j) is 0."""
    support = ms.q > ZERO_CLAMP
    if bool((p_tilde[support] <= ZERO_CLAMP).any()):
        return math.inf
    qs = ms.q[support]
    return float(-(qs * np.log(p_tilde[support] / ms.d_tilde[support])).sum()) + 0.0


def model_to_json(model: SequentialModel) -> dict:
    """JSON form: {"pi": [[...]], "x": [...], "x_tilde": [...]}, pi[j][i] row-major."""
    return {
        "pi": model.pi.tolist(),
        "x": model.x.tolist(),
        "x_tilde": model.x_tilde.tolist(),
    }


def real_array(value) -> np.ndarray | None:
    """``value`` as a float array, or None if an entry is a bool or not a real number."""
    # one pass over the entries as objects: numpy would turn a bool beside numbers into 0 or 1
    arr = np.array(value, dtype=object)
    if not all(issubclass(t, numbers.Real) and t is not bool for t in set(map(type, arr.flat))):
        return None
    try:
        return arr.astype(float)
    except OverflowError:  # an integer beyond the float range
        return None


def _is_integral(value) -> bool:
    """An integer of any integral type; never a bool, nor 2.7, which int() would truncate."""
    return isinstance(value, numbers.Integral) and not isinstance(value, bool)


def exact_keys(obj, keys, what: str) -> None:
    """Raise InputError unless ``obj`` is a JSON object with exactly the ``keys``."""
    if not isinstance(obj, dict) or obj.keys() != set(keys):
        raise InputError(f"{what} must be an object with exactly the keys {sorted(keys)}")


def model_from_json(obj: dict) -> SequentialModel:
    exact_keys(obj, ("pi", "x", "x_tilde"), "model document")
    arrays = {key: real_array(value) for key, value in obj.items()}
    non_numeric = sorted(key for key, arr in arrays.items() if arr is None)
    if non_numeric:
        raise InputError(f"model document entries are not numeric: {non_numeric}")
    return SequentialModel(**arrays)

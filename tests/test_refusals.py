"""The smallest bad input for each input refusal that no other test reaches."""

import numpy as np
import pytest

import seqmeas.entropy as ent
import seqmeas.harness as hn
import seqmeas.quantum as qm
import seqmeas.stat_model as sm
from seqmeas.errors import (
    ConfigError,
    InconsistentModelError,
    InputError,
    InvalidOperatorError,
    ShapeError,
)

RHO2 = qm.DensityOperator(np.eye(2) / 2)
RHO3 = qm.DensityOperator(np.eye(3) / 3)
FAM2 = qm.ProjectorFamily((np.diag([1.0, 0.0]), np.diag([0.0, 1.0])))
FAM3 = qm.ProjectorFamily((np.eye(3),))
U2 = qm.Unitary(np.eye(2))


def _model(p_tilde, probabilities=None, u=U2):
    return qm.build_sequential_model(RHO2, FAM2, u, FAM2, p_tilde, probabilities)


def _family(vectors, degeneracies):
    """``family_from_json`` of a family document with these columns and ranks."""
    doc = {"dim": len(vectors), "entries": [[[float(z), 0.0] for z in row] for row in vectors]}
    return qm.family_from_json({"vectors": doc, "degeneracies": degeneracies})


REFUSALS = {
    "is_minimal_pair-dims": (
        lambda: ent.is_minimal_pair(RHO2, RHO3), ShapeError, "dimension mismatch: 2 vs 3"
    ),
    "outcome_probabilities-dims": (
        lambda: qm.outcome_probabilities(RHO2, FAM3), ShapeError, "state dim 2 != family dim 3"
    ),
    "luders_channel-dims": (
        lambda: qm.luders_channel(RHO2, FAM3), ShapeError, "state dim 2 != family dim 3"
    ),
    "build_sequential_model-dims": (
        lambda: _model([0.5, 0.5], u=qm.Unitary(np.eye(3))), ShapeError, "share one dimension"
    ),
    "build_sequential_model-p_tilde-shape": (
        lambda: _model([1.0]), ShapeError, "p_tilde has shape (1,), expected (2,)"
    ),
    "build_sequential_model-p_tilde-sum": (
        lambda: _model([0.5, 0.6]), InputError, "p_tilde sums to 1.1"
    ),
    "build_sequential_model-probabilities-shape": (
        lambda: _model([0.5, 0.5], [1.0]), ShapeError, "probabilities has shape (1,)"
    ),
    "build_sequential_model-probabilities-sum": (
        lambda: _model([0.5, 0.5], [0.5, 0.6]), InputError, "must be a distribution"
    ),
    "build_sequential_model-probabilities-born": (
        lambda: _model([0.5, 0.5], [0.4, 0.6]), InputError, "disagree with Tr(rho0 P_i)"
    ),
    "two_point_work_protocol-dims": (
        lambda: qm.two_point_work_protocol(np.eye(2), np.eye(3), U2, 1.0),
        ShapeError,
        "h0, h1 and u must share one dimension",
    ),
    "dilation_analysis-phi": (
        lambda: qm.dilation_analysis(RHO2, qm.Unitary(np.eye(4)), FAM2, [1.0, 0.0, 0.0]),
        ShapeError,
        "ancilla state has length 3, expected 2",
    ),
    "family_from_json-non-orthonormal": (
        lambda: _family([[1.0, 0.5], [0.0, 1.0]], [1, 1]), InvalidOperatorError,
        "family vectors are not orthonormal",
    ),
    "family_from_json-nan": (
        lambda: _family([[np.nan, 0.0], [0.0, 1.0]], [1, 1]), InputError,
        "family vectors must have finite entries",
    ),
    "family_from_json-rank-sum": (
        lambda: _family(np.eye(2), [1]), InputError, "must be positive integers summing to dim=2"
    ),
    "family_from_json-rank-bool": (  # True + 1 == 2, so only the type refuses it
        lambda: _family(np.eye(2), [True, 1]), InputError, "must be positive integers"
    ),
    "family_from_json-rank-fraction": (  # 2.7 + 0.3 == 3.0, so only the type refuses it
        lambda: _family(np.eye(3), [2.7, 0.3]), InputError, "must be positive integers"
    ),
    "partial_trace-keep": (
        lambda: qm.partial_trace(np.eye(4), (2, 2), 3), InputError, "keep must be 1 or 2"
    ),
    "SequentialModel-x-matrix": (
        lambda: sm.SequentialModel(pi=[[1.0]], x=[[1.0]], x_tilde=[1.0]),
        ShapeError,
        "x and x_tilde must be vectors",
    ),
    "SequentialModel-empty": (
        lambda: sm.SequentialModel(pi=np.ones((0, 1)), x=[1.0], x_tilde=[]),
        ShapeError,
        "outcome sets must be non-empty",
    ),
    "RatioObservable-vector": (
        lambda: sm.RatioObservable([1.0]), ShapeError, "must be two-dimensional"
    ),
    "generated-model-reverse-normalisation": (
        lambda: hn._require_valid(sm.SequentialModel(pi=[[1.0]], x=[1.0], x_tilde=[2.0])),
        InputError,
        "reverse_normalisation",
    ),
    "minimal_x_tilde-inconsistent": (  # d_tilde(0) = 0 but q(0) = 2
        lambda: sm.minimal_x_tilde(sm.SequentialModel(pi=[[2.0, -2.0]], x=[1, 0], x_tilde=[1])),
        InconsistentModelError,
        "q(j) > 0 requires d_tilde(j) > 0",
    ),
    "modified_shannon_entropy-nan": (
        lambda: sm.modified_shannon_entropy([np.nan], [1.0]), InputError, "p and d must be finite"
    ),
    "ExperimentConfig-no-checks": (
        lambda: hn.ExperimentConfig(check_set=()), ConfigError, "check_set must not be empty"
    ),
    "ExperimentConfig-from-list": (
        lambda: hn.ExperimentConfig.from_json([]), ConfigError, "must be a JSON object"
    ),
}


@pytest.mark.parametrize("case", REFUSALS)
def test_input_is_refused(case):
    """Each case raises its error type with its message fragment.

    Valid inputs cannot reach one refusal, so it has no case here:
    ``build_sequential_model``'s cross-check of the induced joint
    distribution against the Born rule.  ``harness._require_valid`` is called
    directly, since every model the generator draws is valid.
    """
    call, error, fragment = REFUSALS[case]
    with pytest.raises(error) as raised:
        call()
    assert fragment in str(raised.value)

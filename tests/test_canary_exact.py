"""The cycle-sim canary compares outputs to golden bit for bit."""

import numpy as np
import pytest

from repro.service import CompileOptions, fingerprint
from repro.service.executor import (
    PlanValidationError,
    compile_plan,
    execute_stencil,
    validate_plan,
)
from repro.stencil import DENOISE, PAPER_BENCHMARKS

from conftest import small_spec


def _plan(spec):
    options = CompileOptions()
    return options, compile_plan(spec, options, fingerprint(spec, options))


@pytest.mark.parametrize("seed", [1, 2, 3])
@pytest.mark.parametrize(
    "kernel", list(PAPER_BENCHMARKS), ids=lambda s: s.name
)
def test_paper_kernels_validate_bit_exactly(kernel, seed):
    spec = small_spec(kernel)
    options, plan = _plan(spec)
    grid, golden, _ = execute_stencil(spec, seed)
    validate_plan(spec, options, plan, grid, golden)


def test_one_ulp_off_golden_fails_validation():
    spec = small_spec(DENOISE)
    options, plan = _plan(spec)
    grid, golden, _ = execute_stencil(spec, 1)
    nudged = list(golden)
    nudged[7] = float(np.nextafter(nudged[7], np.inf))
    assert np.allclose(nudged, golden)
    with pytest.raises(PlanValidationError, match="diverge"):
        validate_plan(spec, options, plan, grid, nudged)

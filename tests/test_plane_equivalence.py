"""MRBC and SBBC reproduce their golden records bit for bit.

Every case of :mod:`tests.test_engine_golden` runs on the columnar plane
and must match its recorded signature, round counts and output digests.
Outputs compare bitwise, not with ``allclose``: the vectorized kernels
replay the sequential per-item accumulation order exactly.
"""

from __future__ import annotations

import pytest

from tests.test_engine_golden import (
    MRBC_CASES,
    SBBC_CASES,
    assert_matches_golden,
    mrbc_case_id,
    sbbc_case_id,
)


@pytest.mark.parametrize("spec,hosts,delayed,batch", MRBC_CASES)
def test_mrbc_array_plane_is_bit_identical(spec, hosts, delayed, batch):
    assert_matches_golden(mrbc_case_id(spec, hosts, delayed, batch))


@pytest.mark.parametrize("spec,hosts", SBBC_CASES)
def test_sbbc_array_plane_is_bit_identical(spec, hosts):
    assert_matches_golden(sbbc_case_id(spec, hosts))


def test_mrbc_crash_restart_equivalence():
    assert_matches_golden("mrbc/crash-restart")


def test_sbbc_crash_restart_equivalence():
    assert_matches_golden("sbbc/crash-restart")

from fractions import Fraction as F

import pytest

from jetcover.flatpoly import (
    find_flat_poly,
    lambda_threshold,
    minimal_flat_poly,
    scale_to_p,
)
from jetcover.ifs import standard_pair
from jetcover.jetcovering import auto_lambda, build_system


@pytest.fixture(scope="session")
def sys34():
    return standard_pair(F(3, 4))


@pytest.fixture(scope="session")
def flat_q1():
    return minimal_flat_poly(1, 1)


@pytest.fixture(scope="session")
def flat_q2():
    return find_flat_poly(2)


@pytest.fixture(scope="session")
def flat_q3():
    return find_flat_poly(3)


@pytest.fixture(scope="session")
def jet_sys_r0(flat_q1):
    return build_system(1, F(3, 4), scale_to_p(flat_q1, F(3, 4)))


@pytest.fixture(scope="session")
def jet_sys_r1(flat_q2):
    lam = auto_lambda(lambda_threshold(flat_q2))
    return build_system(2, lam, scale_to_p(flat_q2, lam))


@pytest.fixture(scope="session")
def jet_sys_r2(flat_q3):
    lam = auto_lambda(lambda_threshold(flat_q3))
    return build_system(3, lam, scale_to_p(flat_q3, lam))

import re

import numpy as np
import pytest

import hmpident as hi
from hmpident.errors import LengthError
from conftest import fair_coin_distribution, fair_coin_params

DIST = fair_coin_distribution(3)
MARGS = hi.marginals(DIST)
PARAMS = fair_coin_params()


@pytest.mark.parametrize("fn, args, name, value", [
    (hi.marginalize, (DIST, 2.5), "m", 2.5),
    (hi.marginalize, (DIST, True), "m", True),
    (hi.hankel_block, (MARGS, 1.5, 1), "m", 1.5),
    (hi.hankel_block, (MARGS, 1, True), "k", True),
    (hi.identify, (DIST, True), "max_states", True),
    (hi.identify, (DIST, 2.0), "max_states", 2.0),
    (hi.infer_finitary, (DIST, 0), "e", 0),
    (hi.minor_membership, (DIST, 0), "d", 0),
    (hi.select_basis, (np.eye(3), 0), "e", 0),
    (hi.random_stochastic, (-2, 0), "d", -2),
    (hi.random_stochastic, (2.5, 0), "d", 2.5),
    (hi.full_distribution, (PARAMS, 2.5), "n", 2.5),
    (hi.full_distribution, (PARAMS, "3"), "n", "3"),
    (hi.full_distribution, (PARAMS, True), "n", True),
    (hi.full_distribution, (PARAMS, np.int64(3)), "n", np.int64(3)),
])
def test_orders_and_counts_must_be_integers_in_range(fn, args, name, value):
    with pytest.raises(LengthError, match=rf"^{name} must be an integer .*, got {re.escape(repr(value))}$"):
        fn(*args)

import os
import subprocess
import sys

import mpmath
import numpy as np
import pytest

from adawish.logspace import NEG_INF, log_sum_exp

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")


def mp_log_sum_exp(terms) -> float:
    with mpmath.workdps(60):
        total = mpmath.fsum(mpmath.e ** mpmath.mpf(t) for t in terms if t != NEG_INF)
        return float(mpmath.log(total)) if total else NEG_INF


class TestLogSumExp:
    def test_empty_and_zero_weight_sums(self):
        assert log_sum_exp([]) == NEG_INF
        assert log_sum_exp([NEG_INF] * 3) == NEG_INF
        assert log_sum_exp(np.array([NEG_INF, 2.5, NEG_INF])) == 2.5

    def test_ties_at_the_maximum_are_counted(self):
        # m tied maxima and nothing else: exactly log m + max
        assert log_sum_exp([1.0, 1.0, 1.0, 1.0]) == float(np.log(4.0)) + 1.0
        assert log_sum_exp([0.0, NEG_INF, 0.0]) == float(np.log(2.0))

    @pytest.mark.parametrize("seed", range(6))
    def test_matches_mpmath_with_ties_and_neg_inf(self, seed):
        rng = np.random.default_rng(seed)
        for size in (1, 2, 13, 100, 5000):
            terms = rng.normal(0.0, [0.01, 1.0, 30.0, 300.0][seed % 4], size=size)
            terms[rng.random(size) < 0.3] = NEG_INF
            terms[rng.integers(0, size, size=3)] = terms.max()  # ties at the maximum
            if seed % 2:
                terms = np.round(terms)  # ties below it too
            ref = mp_log_sum_exp(terms.tolist())
            assert log_sum_exp(terms) == pytest.approx(ref, rel=1e-14, abs=1e-14)

    def test_import_leaves_scipy_out(self):
        # importing scipy.special alone costs ~25 MB and ~0.4 s
        code = "import sys, adawish, adawish.cli, adawish.verify; print('scipy' in sys.modules)"
        env = dict(os.environ, PYTHONPATH=SRC)
        out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
        assert out.stdout.strip() == "False"

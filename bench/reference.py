"""Fixed reference task that measures how fast the machine runs right now.

    python3 bench/reference.py

A fresh interpreter imports the libraries rcseq is built on and runs a
fixed mix of small least-squares solves, normal tail probabilities and
interpreted loops, roughly the mix of rcseq's own work. It does not import
rcseq, so no change to the program changes its time. The benchmark runs it
in every iteration and scales its timings by how much slower or faster
the reference ran than its nominal time.
"""

import numpy as np
from scipy.stats import norm


def main() -> None:
    rng = np.random.default_rng(0)
    design = rng.standard_normal((960, 4))
    target = rng.standard_normal(960)
    for _ in range(1600):
        np.linalg.lstsq(design, target, rcond=None)
        norm.sf(np.abs(target[:64]))
    total = 0
    for i in range(1_200_000):
        total += i % 7
    assert total > 0


if __name__ == "__main__":
    main()

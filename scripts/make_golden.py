#!/usr/bin/env python3
"""Regenerate the pinned sigma_r golden values.

Runs the Rayleigh-quotient ascent at higher effort (more starts) for each
(r, N, T, m, s, M) tuple listed in TUPLES and rewrites
src/perifrac/data/golden_sigmas.txt.  Run from the repository root:

    python scripts/make_golden.py [--starts 24] [--out PATH]
"""

import argparse
import pathlib
import sys

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parents[1] / "src"))

import numpy as np

from perifrac.constants import golden_key, sigma_estimate
from perifrac.spectral import ProblemSpec, SpectrumParams

# (r, s, m, gamma, T, N, modes) -- gamma is irrelevant to sigma but the
# problem container wants a value below m^(2s)
TUPLES = [
    (4.0, 0.75, 1.0, 0.5, 2.0 * np.pi, 2, 8),
    (4.0, 0.75, 1.0, 0.5, 2.0 * np.pi, 2, 0),
    (4.0, 0.60, 1.0, 0.5, 2.0 * np.pi, 2, 8),
]

DEFAULT_OUT = pathlib.Path(__file__).resolve().parents[1] / \
    "src" / "perifrac" / "data" / "golden_sigmas.txt"


def estimates(entries, starts: int, seed: int):
    """(golden key, sigma_r estimate) for each (r, problem, modes) entry,
    from the ascent with `starts` starts."""
    for r, problem, modes in entries:
        params = SpectrumParams(modes, 2 * modes + 2)
        yield golden_key(r, problem, modes), sigma_estimate(
            r, problem, params, seed=seed, starts=starts)


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--starts", type=int, default=24,
                    help="random ascent starts per tuple (default 24)")
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--out", type=pathlib.Path, default=DEFAULT_OUT)
    args = ap.parse_args()

    lines = [
        "# pinned truncated lower bounds for the embedding constants sigma_r",
        "# key: sigma r=<r> N=<N> T=<repr> m=<repr> s=<repr> M=<modes>",
        f"# regenerated by scripts/make_golden.py --starts {args.starts} "
        f"--seed {args.seed}",
        "# closed forms for reference (not consulted):",
        "#   sigma_2 = m^(-s) / sqrt(kappa_s)",
        "#   sigma_1 = T^(N/2) m^(-s) / sqrt(kappa_s)",
    ]
    entries = [(r, ProblemSpec(s=s, m=m, gamma=gamma, lam=1.0, T=T, N=N),
                modes) for r, s, m, gamma, T, N, modes in TUPLES]
    for key, est in estimates(entries, args.starts, args.seed):
        lines.append(f"{key} = {est.value!r}")
        print(f"{key} = {est.value!r}   (status={est.status}, iterations "
              f"{est.coarse_iterations} at M={est.coarse_modes} + "
              f"{est.fine_iterations} at M={est.modes})")

    args.out.parent.mkdir(parents=True, exist_ok=True)
    args.out.write_text("\n".join(lines) + "\n")
    print(f"wrote {args.out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())

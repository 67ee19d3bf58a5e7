"""Cold-start probe: a fresh interpreter's time to its first stream bytes.

Run as ``python3 perfbench/coldstart.py MODE ALGORITHM SEED LANES N``.
MODE ``bsrng`` builds :class:`repro.core.generator.BSRNG` directly (the
library path); MODE ``stream`` goes through
``repro.serve.engine.StreamConfig(...).make_rng()`` (the offline replay
client's path).  Prints the first N bytes as hex, so the caller can
check them.
"""

import sys
from pathlib import Path


def main(argv: list[str]) -> int:
    sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))
    mode, algorithm, seed, lanes, n = argv[0], argv[1], int(argv[2]), int(argv[3]), int(argv[4])
    if mode == "bsrng":
        from repro.core.generator import BSRNG

        rng = BSRNG(algorithm, seed=seed, lanes=lanes)
    else:
        from repro.serve.engine import StreamConfig

        rng = StreamConfig(algorithm=algorithm, seed=seed, lanes=lanes).make_rng()
    print(rng.read(n).hex(), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

"""One set-up sample in a fresh interpreter: import sbpmt, make the inputs.

usage: probe_setup.py KIND SEED N_TRAIN N_TEST WORKDIR
Prints the seconds taken.
"""

import time

T0 = time.perf_counter()

import sys  # noqa: E402

import inputs  # noqa: E402


def main(argv) -> None:
    kind, seed, n_train, n_test, workdir = argv
    inputs.import_sbpmt()
    inputs.make_inputs(kind, int(seed),
                       {"n_train": int(n_train), "n_test": int(n_test)},
                       workdir)
    print(time.perf_counter() - T0)


if __name__ == "__main__":
    main(sys.argv[1:])

"""Cold set-up of one CLI call, run in a fresh interpreter by run.py.

Usage: setup_probe.py SRC_DIR DATA SCHEMA [DATA SCHEMA ...]

Imports redclust from SRC_DIR, then loads and z-normalizes each dataset,
then prints "ready". run.py times the span from starting this process to
reading that line.
"""

import sys


def main(argv):
    src, files = argv[0], argv[1:]
    sys.path.insert(0, src)
    from redclust import load_dataset, normalize

    for data_path, schema_path in zip(files[::2], files[1::2]):
        normalize(load_dataset(data_path, schema_path))
    print("ready", flush=True)


if __name__ == "__main__":
    main(sys.argv[1:])

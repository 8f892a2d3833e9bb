"""The three benchmark workloads and the inputs they hand to redclust.

``canonical`` is the paper's experiment on the four bundled datasets with
the canonical configuration; its inputs do not depend on the seed. ``wide``
and ``tall`` are generated tables, written as CSV plus a JSON schema, that
depend only on the seed. The program only ever sees those files.
"""

import json
from pathlib import Path

import numpy as np

WORKLOADS = ("canonical", "wide", "tall")

CANONICAL_FILES = ("ecoli", "acute_implant", "blood_transfusion", "prostate")

# Reducers run on the generated tables. SOM is left out (its per-sample loop
# would cost tens of seconds at 3000 rows) and so is FastICA (its cell fails
# on every table with rows <= columns, see CHANGES.md).
GENERATED_REDUCERS = ("svd", "pca", "none")

# Program seed for every workload: the canonical configuration's value.
PROGRAM_SEED = 17

WIDE_ROWS = 110  # more rows than columns: the centred matrix keeps full column rank
WIDE_COLS = 80
WIDE_GROUPS = 3
WIDE_RANK = 4

TALL_ROWS = 3000
TALL_NUMERIC = 5
TALL_BLOBS = 4
TALL_SITES = ("north", "south", "east")


def _write_table(directory, name, header, kinds, rows):
    """Write ``rows`` as CSV plus the JSON schema redclust reads; return both paths."""
    directory.mkdir(parents=True, exist_ok=True)
    data_path = directory / f"{name}.csv"
    schema_path = directory / f"{name}.schema.json"
    lines = [",".join(header)] + [",".join(r) for r in rows]
    data_path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    columns = [{"name": h, "kind": k, "role": role} for h, (k, role) in zip(header, kinds)]
    schema = {"name": name, "delimiter": ",", "expected_rows": len(rows), "columns": columns}
    schema_path.write_text(json.dumps(schema, indent=2) + "\n", encoding="utf-8")
    return data_path, schema_path


def _balanced_groups(rng, rows, groups):
    """Group index per row, every group the same size to within one, in seeded order."""
    return rng.permutation(np.arange(rows) % groups)


def _axis_centres(rng, count, dim, distance):
    """``count`` centres on distinct random axes with random signs.

    Every pair sits ``distance`` apart and every used column sees the same
    spread of centres, so the clustering geometry, and with it the work the
    program does, is the same for every seed up to a relabelling of columns.
    """
    axes = rng.permutation(dim)[:count]
    signs = rng.choice([-1.0, 1.0], size=count)
    centres = np.zeros((count, dim))
    centres[np.arange(count), axes] = signs * distance / np.sqrt(2.0)
    return centres


def make_wide(seed, directory):
    """Gene-expression-shaped table: 110 samples x 80 genes, low-rank blob structure.

    Each sample belongs to one of three equal groups whose centres sit in a
    rank-4 latent space; genes load on that space, then get their own
    positive expression level and scale, plus independent noise. A sample id
    and the group label ride along as non-regular columns.
    """
    rng = np.random.default_rng([seed, 1])
    group = _balanced_groups(rng, WIDE_ROWS, WIDE_GROUPS)
    centres = _axis_centres(rng, WIDE_GROUPS, WIDE_RANK, 6.0)
    latent = centres[group] + rng.normal(scale=0.6, size=(WIDE_ROWS, WIDE_RANK))
    loadings = rng.normal(size=(WIDE_RANK, WIDE_COLS)) / np.sqrt(WIDE_RANK)
    level = rng.uniform(4.0, 12.0, size=WIDE_COLS)
    scale = rng.uniform(0.3, 1.5, size=WIDE_COLS)
    noise = rng.normal(scale=0.5, size=(WIDE_ROWS, WIDE_COLS))
    values = level + scale * (latent @ loadings + noise)

    header = ["sample"] + [f"g{j:03d}" for j in range(WIDE_COLS)] + ["group"]
    kinds = [("nominal", "id")] + [("numeric", "regular")] * WIDE_COLS + [("nominal", "label")]
    rows = [
        [f"s{i:04d}"] + [f"{v:.6f}" for v in values[i]] + [f"grp{group[i]}"]
        for i in range(WIDE_ROWS)
    ]
    return [_write_table(directory, "wide", header, kinds, rows)]


def make_tall(seed, directory):
    """3000 rows, 5 numeric columns and 1 nominal column in four equal blobs.

    Blobs are Gaussian around centres on distinct axes, then each numeric
    column gets its own unit and offset; the nominal ``site`` column follows
    the blob with 10% mixing, so the mixed distance of the unreduced cell
    sees it. A row id rides along.
    """
    rng = np.random.default_rng([seed, 2])
    blob = _balanced_groups(rng, TALL_ROWS, TALL_BLOBS)
    centres = _axis_centres(rng, TALL_BLOBS, TALL_NUMERIC, 4.0)
    z = centres[blob] + 0.5 * rng.normal(size=(TALL_ROWS, TALL_NUMERIC))
    units = np.array([1.0, 10.0, 0.5, 3.0, 20.0])
    offsets = np.array([0.0, 100.0, 5.0, -10.0, 250.0])
    values = offsets + units * z
    site = np.where(
        rng.uniform(size=TALL_ROWS) < 0.9,
        blob % len(TALL_SITES),
        rng.integers(0, len(TALL_SITES), size=TALL_ROWS),
    )

    header = ["row"] + [f"x{j}" for j in range(TALL_NUMERIC)] + ["site"]
    kinds = [("nominal", "id")] + [("numeric", "regular")] * TALL_NUMERIC + [("nominal", "regular")]
    rows = [
        [f"r{i:05d}"] + [f"{v:.6f}" for v in values[i]] + [TALL_SITES[site[i]]]
        for i in range(TALL_ROWS)
    ]
    return [_write_table(directory, "tall", header, kinds, rows)]


def prepare(workload, seed, root, work_dir):
    """Return (dataset file pairs, reducers) for ``workload``, writing generated inputs."""
    if workload == "canonical":
        data = Path(root) / "data"
        pairs = [(data / f"{n}.csv", data / f"{n}.schema.json") for n in CANONICAL_FILES]
        return pairs, None  # None: the configuration's default, all five reducers
    if workload == "wide":
        return make_wide(seed, Path(work_dir) / "inputs"), GENERATED_REDUCERS
    if workload == "tall":
        return make_tall(seed, Path(work_dir) / "inputs"), GENERATED_REDUCERS
    raise ValueError(f"unknown workload {workload!r}; valid: {list(WORKLOADS)}")

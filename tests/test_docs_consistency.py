"""Documentation consistency: what the docs promise must exist."""

import pathlib
import re


ROOT = pathlib.Path(__file__).parent.parent


def test_design_md_mentions_every_experiment():
    design = (ROOT / "DESIGN.md").read_text()
    for exp in ("Fig. 1", "Fig. 3", "Table II", "Fig. 4", "Fig. 5", "Fig. 6"):
        assert exp in design


def test_design_md_documents_the_engines():
    """The execution-engine section exists and covers the contract."""
    design = (ROOT / "DESIGN.md").read_text()
    assert "## 6. Execution engines: simulated vs. processes" in design
    for required in (
        "collectives contract",
        "allgather_groups",
        "alltoall_groups",
        "gather_to_root",
        "run_superstep",
        "bit-identical",
        'engine="processes"',
    ):
        assert required in design, required


def test_every_engine_facing_module_states_its_engines():
    """Docstring convention of the distributed/machine/runtime layers.

    Every module must carry an ``Engines:`` line naming which engine(s)
    it supports and say whether it charges modeled cost.
    """
    import importlib
    import pkgutil

    import repro.distributed
    import repro.machine
    import repro.runtime

    for pkg in (repro.distributed, repro.machine, repro.runtime):
        names = [pkg.__name__] + [
            f"{pkg.__name__}.{m.name}"
            for m in pkgutil.iter_modules(pkg.__path__)
        ]
        for name in names:
            doc = importlib.import_module(name).__doc__ or ""
            assert "Engines:" in doc, f"{name} missing 'Engines:' line"
            assert "modeled" in doc, f"{name} must state modeled-cost behavior"


def test_experiments_md_covers_every_table_and_figure():
    text = (ROOT / "EXPERIMENTS.md").read_text()
    for heading in (
        "## Fig. 1",
        "## Fig. 3",
        "## Table II",
        "## Fig. 4",
        "## Fig. 5",
        "## Fig. 6",
        "## Section V.C",
        "## Section IV.B",
        "## Calibration",
    ):
        assert heading in text, heading


def test_readme_commands_exist():
    """Every `repro-bench X` in README names one of the subcommands."""
    readme = (ROOT / "README.md").read_text()
    for m in re.finditer(r"repro-bench ([a-z0-9-]+)", readme):
        assert m.group(1) in ("run", "snapshot", "compare", "orchestrate", "report"), m.group(1)


def test_readme_documents_the_process_engine():
    readme = (ROOT / "README.md").read_text()
    assert "--engine processes" in readme
    assert 'engine="processes"' in readme
    assert "calibration" in readme


def test_readme_examples_exist():
    readme = (ROOT / "README.md").read_text()
    for m in re.finditer(r"python (examples/[a-z_]+\.py)", readme):
        assert (ROOT / m.group(1)).exists(), m.group(1)


def test_api_doc_symbols_resolve():
    """Spot-check that symbols named in docs/API.md import cleanly."""
    import repro
    import repro.baselines as b
    import repro.bench as bench
    import repro.distributed as d
    import repro.machine as m
    import repro.matrices as mat
    import repro.semiring as sr
    import repro.solvers as s

    for mod, names in [
        (repro, ["rcm", "rcm_serial", "rcm_distributed", "quality_of"]),
        (d, ["dist_spmspv", "d_sortperm", "dist_bfs", "dist_cg", "permute_distributed"]),
        (b, ["gps_ordering", "sloan_ordering", "spmp_rcm", "gather_then_rcm"]),
        (s, ["SkylineCholesky", "model_cg_solve", "conjugate_gradient"]),
        (m, ["edison", "CollectiveEngine", "ProcessGrid"]),
        (mat, ["PAPER_SUITE", "thermal2_like", "block_overlap_graph"]),
        (sr, ["SELECT2ND_MIN", "spmspv_csc"]),
        (bench, ["EXPERIMENTS", "stacked_bars"]),
    ]:
        for name in names:
            assert hasattr(mod, name), f"{mod.__name__}.{name}"


def test_quickstart_claim_in_readme_holds():
    """README claims dist == serial perms; verify the exact snippet."""
    from repro import rcm
    from repro.matrices import stencil_2d
    from repro.sparse import random_symmetric_permutation

    A, _ = random_symmetric_permutation(stencil_2d(40, 40), seed=42)
    ordering = rcm(A)
    dist = rcm(A, nprocs=9)
    assert (ordering.perm == dist.perm).all()

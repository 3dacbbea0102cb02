"""Packaging for the distributed-memory RCM reproduction.

Metadata and the ``repro-bench`` console script live here (the bare
``setup()`` this file used to call installed nothing, so the entry point
README documents never actually existed).  The offline environment lacks
the `wheel` package, so PEP 660 editable installs (which build a wheel)
fail; keeping a setup.py and omitting the [build-system] table lets
``pip install -e .`` take the legacy ``setup.py develop`` path, which
works without wheel.
"""

from setuptools import find_packages, setup

setup(
    name="repro-rcm",
    version="0.5.0",
    description=(
        "Reproduction of 'The Reverse Cuthill-McKee Algorithm in "
        "Distributed-Memory' (IPDPS 2017): algebraic RCM over a simulated "
        "or process-parallel distributed machine, with a benchmark harness"
    ),
    long_description=open("README.md", encoding="utf-8").read(),
    long_description_content_type="text/markdown",
    license="MIT",
    python_requires=">=3.10",
    package_dir={"": "src"},
    packages=find_packages(where="src"),
    install_requires=["numpy"],
    extras_require={
        "scipy": ["scipy"],
        "dev": ["pytest", "hypothesis", "pytest-cov", "ruff"],
    },
    entry_points={
        "console_scripts": [
            "repro-bench = repro.bench.cli:main",
            "repro-serve = repro.service.serve:main",
        ],
    },
)

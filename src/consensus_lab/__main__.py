"""``python -m consensus_lab``: the ``consensus-lab`` command line."""

from .scenario_cli import main

if __name__ == "__main__":
    raise SystemExit(main())

"""Property test of the command line: every argv ends in a run (exit 0 or
1), a one-line refusal or argparse's usage error, never in a traceback.

Subcommands and flags come from the parser's own actions, and values from
edge pools.  The process pool is replaced by one that runs its chunks in
this process, and ``verify`` by a stub, so no worker starts and no heavy
check runs."""

import argparse
import contextlib
import io
import json
import os

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from robust_da import checks, cli

# Small JSON configs (t_end <= 1) and a JSON file that holds no object.
_CONFIGS = {
    "ou.json": {"model": "ou", "t_end": 0.5},
    "tracking.json": {"model": "tracking2d", "t_end": 1.0, "mc_reps": 2},
    "l63.json": {"model": "lorenz63", "filter": "dsm_enkf", "t_end": 0.2, "ensemble_size": 4},
    "l96.json": {"model": "lorenz96", "filter": "letkf", "t_end": 0.1},
    "list.json": [1],
}
# "@name" stands for a path in the test's directory: an existing file, an
# existing directory, a path not made yet, or one of the configs.
_PATHS = ["@file", "@dir", "@new", *(f"@{name}" for name in _CONFIGS)]
_EDGES = [
    "", " ", "\t", "nan", "inf", "-inf", "-0", "1e309", str(10**12), str(2**64), str(10**330),
    "é", "λ,ε", "nope_desk",
]
_ORDINARY = ["1", "2", "0,0.25", "2.5,27.5", "5,10", "kf,dsm_kf", "enkf,dsm_pf", "letkf", "imq"]


def _subcommand_actions() -> dict[str, tuple[list, list]]:
    """Each subcommand's (required, optional) actions that take a value."""
    parser = cli.build_parser()
    (subparsers,) = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    actions = {}
    for name, sub in subparsers.choices.items():
        valued = [a for a in sub._actions if a.option_strings and a.nargs != 0]
        actions[name] = ([a for a in valued if a.required], [a for a in valued if not a.required])
    return actions


_ACTIONS = _subcommand_actions()


@st.composite
def argvs(draw):
    """A subcommand with its required flags and up to three others, each
    given an edge value, an ordinary one or one of the flag's choices."""
    command = draw(st.sampled_from(sorted(_ACTIONS)))
    required, optional = _ACTIONS[command]
    actions = required + draw(st.lists(st.sampled_from(optional), unique=True, max_size=3))
    argv = [command]
    for action in actions:
        pools = [_EDGES, _ORDINARY + _PATHS, *([list(action.choices)] if action.choices else [])]
        value = draw(st.sampled_from(draw(st.sampled_from(pools))))
        argv.append(f"{action.option_strings[-1]}={value}")
    return argv


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    root = tmp_path_factory.mktemp("cli")
    (root / "file").write_text("kept")
    (root / "dir").mkdir()
    for name, config in _CONFIGS.items():
        (root / name).write_text(json.dumps(config))
    return root


class _InProcessPool:
    """A ``ProcessPoolExecutor`` that runs its chunks here and checks that
    no more workers were asked for than there are cores."""

    def __init__(self, max_workers):
        assert max_workers <= (os.cpu_count() or 1)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def map(self, fn, iterable, chunksize=1):
        return map(fn, iterable)


@settings(max_examples=1000, deadline=None, derandomize=True, database=None)
@given(argvs())
@example(["tune", f"--dy={10**330}"])
@example(["size-sweep", "--filters=enkf", f"--sizes={10**12}"])
def test_every_argv_ends_in_a_run_or_a_one_line_refusal(workdir, argv):
    import concurrent.futures

    argv = [a.replace("@", f"{workdir}/") for a in argv]
    out, err = io.StringIO(), io.StringIO()
    with pytest.MonkeyPatch.context() as mp:
        mp.chdir(workdir)  # an empty --out is the working directory
        mp.setattr(concurrent.futures, "ProcessPoolExecutor", _InProcessPool)
        mp.setattr(checks, "run_checks", lambda seed: 0)
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = cli.main(argv)
        except SystemExit as exc:
            code = exc.code
    if code == 2:  # argparse refused the argv: usage, then one error line
        *_, last = err.getvalue().splitlines()
        assert ": error: " in last
    elif not isinstance(code, int):
        assert isinstance(code, str) and "\n" not in code and "Traceback" not in code
    else:
        assert code in (0, 1)

"""``seqloc.cli.main`` parses an argv whose first word names a subcommand
through that subcommand's own parser alone.  Over a corpus of valid and
invalid argvs it must behave as the whole parser tree does: the same exit
status, stdout and stderr as ``PARSER.parse_args``, and the same Namespace
when the parse succeeds."""

import contextlib
import io

import pytest

import seqloc.cli as cli

SOLVE = ["solve", "--batch", "b.csv", "--estimator", "kvd"]

CORPUS = [
    # every subcommand, valid
    ["simulate"],
    ["simulate", "--seed", "3", "--fix", "7", "--out", "d"],
    ["simulate", "--seed=3", "--fix=2", "--config=c.json"],
    SOLVE,
    SOLVE + ["--velocity", "1,2", "--epoch", "0.5"],
    ["solve", "--batch=b.csv", "--estimator=pvd", "--prior-mean=1,2",
     "--prior-std=3", "--config", "c.json", "--seed", "4"],
    ["solve", "--estimator", "d", "--batch", "b.csv"],
    ["solve", "--bat", "b.csv", "--est", "uvd", "--prior-s", "2"],
    ["solve", "--batch", "a.csv", "--batch", "b.csv", "--estimator", "kvd",
     "--estimator", "d", "--seed", "1", "--seed", "2"],
    SOLVE + ["--velocity=-1,2"],
    SOLVE + ["--velocity", "-1,2"],
    ["crlb"],
    ["crlb", "--prior-std", "0.5", "--seed", "3"],
    ["crlb", "--config=c.json", "--prior", "1"],
    ["experiment", "speed-sweep", "--trials", "20", "--svg", "--out", "r"],
    ["experiment", "--seed", "3", "circular", "--tr", "5"],
    ["experiment", "circular", "--svg", "--svg"],
    # the whole tree's own cases
    [],
    ["-h"],
    ["--help"],
    ["-h", "solve"],
    ["bogus"],
    ["bogus", "--batch", "b.csv"],
    ["sol"],
    ["--seed", "3", "solve"],
    ["--", "solve"] + SOLVE[1:],
    # help below a subcommand
    ["solve", "-h"],
    ["solve", "--he"],
    ["experiment", "--help"],
    SOLVE + ["extra", "-h"],
    # usage errors below a subcommand
    ["solve"],
    ["solve", "--batch", "b.csv"],
    ["experiment"],
    SOLVE + ["--bogus", "1"],
    SOLVE + ["--bogus=1"],
    SOLVE + ["extra"],
    SOLVE + ["extra", "more", "--bogus"],
    ["solve", "--", "--batch", "b.csv"],
    SOLVE + ["--"],
    SOLVE + ["--", "x"],
    ["experiment", "--", "circular"],
    SOLVE + ["--prior", "1"],
    SOLVE + ["--epoch", "x"],
    ["solve", "--batch", "b.csv", "--estimator", "foo"],
    ["simulate", "--fix", "1.5"],
    ["simulate", "--fix", "-5"],
    ["experiment", "circular", "--trials", "x"],
    ["experiment", "nope"],
    ["crlb", "--prior-std"],
]


def _outcome(parse, argv):
    """The exit status, stdout, stderr and Namespace (or None) of
    ``parse(argv)``; a parse that returns has status 0."""
    out, err = io.StringIO(), io.StringIO()
    args, status = None, 0
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            args = parse(argv)
        except SystemExit as exc:
            status = exc.code
    return status, out.getvalue(), err.getvalue(), args


@pytest.mark.parametrize("argv", CORPUS,
                         ids=lambda argv: " ".join(argv) or "(none)")
def test_main_parses_as_the_whole_tree(monkeypatch, argv):
    seen = []
    for name in ("_cmd_simulate", "_cmd_solve", "_cmd_crlb",
                 "_cmd_experiment"):
        monkeypatch.setattr(cli, name, lambda args: seen.append(args) or 0)
    got = _outcome(cli.main, list(argv))
    want = _outcome(cli.PARSER.parse_args, list(argv))
    assert got[:3] == want[:3]
    if want[3] is None:
        assert seen == []
    else:
        assert got[3] == 0 and seen == [want[3]]

"""Property test of the CLI's exit-code contract over random argv.

Whatever the argv, ``cli.run`` returns 0 (success), 1 (a verified identity
failed, so only ``verify`` may return it) or 2 (usage or input error), and no
exception escapes it.  The argv mix valid and invalid commands, indices,
modes, digit counts, weights, caps and choices.  ``verify`` always gets a
``--max-weight`` so that no example runs the full suite.
"""

import contextlib
import io

from hypothesis import given, settings
from hypothesis import strategies as st

from zetalike import cli
from zetalike.verify import SUITES

INDEX = st.lists(st.integers(-1, 6), max_size=5).map(
    lambda entries: ",".join(map(str, entries))
)
FORMATS = st.sampled_from(["text", "json", "markdown", "csv", "yaml"])


def _flag(name, values):
    """Either no flag, or the flag with a value drawn from ``values``."""
    return st.one_of(st.just([]), values.map(lambda v: [name, str(v)]))


def _argv(*pieces):
    return st.tuples(*pieces).map(lambda parts: [arg for part in parts for arg in part])


ARGV = st.one_of(
    _argv(st.just(["rho"]), INDEX.map(lambda i: [i]), _flag("--format", FORMATS)),
    _argv(
        st.just(["eta"]),
        INDEX.map(lambda i: [i]),
        _flag("--mode", st.sampled_from(["symbolic", "numeric", "oracle"])),
        _flag("--digits", st.integers(-2, 320)),
        _flag("--render", st.sampled_from(["pi", "zeta", "latex"])),
        _flag("--format", FORMATS),
    ),
    _argv(
        st.just(["table"]),
        st.sampled_from([["rho"], ["eta"], ["zeta"]]),
        _flag("--weight", st.integers(-1, 9)),
        _flag("--format", FORMATS),
        _flag("--render", st.sampled_from(["pi", "zeta", "latex"])),
    ),
    _argv(
        st.just(["verify"]),
        _flag("--suite", st.sampled_from(["all", *SUITES, "nonesuch"])),
        st.integers(-3, 6).map(lambda cap: ["--max-weight", str(cap)]),
        _flag("--format", FORMATS),
    ),
    _argv(st.just(["frobnicate"]), INDEX.map(lambda i: [i])),
)


@settings(deadline=None, derandomize=True, max_examples=500)
@given(ARGV)
def test_exit_code_contract(argv):
    out, err = io.StringIO(), io.StringIO()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.run(argv)
    except BaseException as exc:  # the property is that nothing escapes run()
        raise AssertionError(f"{argv} raised {exc!r}") from exc
    assert code in (0, 1, 2), (argv, code)
    assert code != 1 or argv[0] == "verify", (argv, err.getvalue())

"""Every command line in a small argument space ends in a documented exit
code, with one line on stderr when it fails and no exception escaping.

The commands run in-process through ``cli.main``; the windows are small
enough that every example finishes in well under a second.
"""

import contextlib
import io

from hypothesis import given, settings
from hypothesis import strategies as st

from operadlab.cli import main

INSTANCES = ("sphere:d=5", "framed:d=5", "poisson:d=5", "witness:m=2",
             "padded-witness:m=2", "sphere:d=4")


@st.composite
def command_lines(draw):
    cmd = draw(st.sampled_from(("hochschild", "ss", "e2", "obstruction")))
    argv = [cmd, "--n-max", str(draw(st.integers(-1, 6))),
            "--q-max", str(draw(st.integers(-1, 12)))]
    if cmd == "e2":
        argv += ["--d", str(draw(st.sampled_from((4, 5))))]
    else:
        argv += ["--instance", draw(st.sampled_from(INSTANCES))]
    if cmd == "ss":
        argv += ["--r-max", str(draw(st.integers(0, 4)))]
    if cmd == "obstruction":
        argv += ["--trials", str(draw(st.integers(0, 2)))]
    return argv


@settings(max_examples=150, deadline=None, database=None, derandomize=True)
@given(command_lines())
def test_every_command_line_ends_in_a_documented_exit_code(argv):
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        code = main(argv)
    assert code in (0, 1, 2, 3)
    assert "Traceback" not in err.getvalue()
    assert len(err.getvalue().strip().splitlines()) == (code != 0)

#!/usr/bin/env python3
"""Build the FleXPath server and the benchmark client from source, then
make one benchmark run.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the root of a FleXPath checkout.  The last line of standard
output is the run's JSON result; build output and progress go to
standard error.  See perfbench/README.md.
"""

import os
import shutil
import signal
import subprocess
import sys

# A run must end within 180 s; the build happens before this clock starts.
RUN_TIMEOUT_S = 170


def find_dune():
    dune = shutil.which("dune")
    if dune:
        return dune
    for cand in (os.path.expanduser("~/.opam/default/bin/dune"),):
        if os.path.isfile(cand):
            return cand
    return None


def main(argv):
    if not (os.path.isfile("dune-project") and os.path.isfile("bin/flexpath_cli.ml")
            and os.path.isdir("lib")):
        print("run.py: not at the root of a FleXPath checkout (dune-project, bin/, lib/ missing)",
              file=sys.stderr)
        return 2
    dune = find_dune()
    if dune is None:
        print("run.py: dune not found on PATH", file=sys.stderr)
        return 2
    env = dict(os.environ)
    # Keep every build artifact inside the checkout.
    env["DUNE_CACHE"] = "disabled"
    build = subprocess.run(
        [dune, "build", "--root", ".", "./bin/flexpath_cli.exe", "./perfbench/bench.exe"],
        stdout=sys.stderr, env=env)
    if build.returncode != 0:
        print("run.py: build failed", file=sys.stderr)
        return build.returncode or 2
    cmd = ["_build/default/perfbench/bench.exe"] + argv
    # Own process group, so the server the client starts goes too if the
    # run has to be cut.
    proc = subprocess.Popen(cmd, start_new_session=True)
    try:
        return proc.wait(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print("run.py: run exceeded %d s, stopped" % RUN_TIMEOUT_S, file=sys.stderr)
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        return 3
    except KeyboardInterrupt:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        return 130


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

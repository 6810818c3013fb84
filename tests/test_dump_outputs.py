import subprocess
import sys
from pathlib import Path

import sepcrit
from sepcrit import errors

DUMP = Path(__file__).resolve().parents[1] / "tools" / "dump_outputs.py"


def dump():
    """tools/dump_outputs.py on reduced sizes, for the package this
    process imported."""
    proc = subprocess.run(
        [sys.executable, str(DUMP), str(Path(sepcrit.__file__).parents[1]),
         "--small"], capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


def test_dump_is_deterministic():
    first = dump()
    assert first == dump()
    lines = first.splitlines()
    assert {line.split()[0] for line in lines} == {
        "sound", "rand", "kindI", "region", "table1", "check", "family",
        "one", "bad"}
    # every malformed input is refused with a typed error
    typed = {name for name, cls in vars(errors).items()
             if isinstance(cls, type) and issubclass(cls, errors.SepcritError)}
    bad = [line.split(": ", 1)[0].split()[-1] for line in lines
           if line.startswith("bad")]
    assert bad and set(bad) <= typed
    # kind I runs with a map lambda2: commuting states report their
    # commutator norm, the others name the error
    assert any(line.startswith("sound") and "CommutativityViolated" in line
               for line in lines)
    assert all(line.split()[-1] != "None" for line in lines
               if line.startswith("kindI"))

"""tools/hash_outputs.py imports the benchmark's input generator and command
cycle (bench/gen.py, bench/workloads.py). Running it here makes a change to
their API, or a cycle command that stops exiting 0, fail tier-1 instead of
at the next byte-identity check.
"""

import re
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
_path = list(sys.path)
sys.path.insert(0, str(ROOT / "tools"))
import hash_outputs  # noqa: E402  (puts bench/ on the path to import it)

sys.path[:] = _path


def test_hash_outputs_lists_every_command_and_output():
    proc = subprocess.run(
        [sys.executable, str(ROOT / "tools" / "hash_outputs.py"),
         "--src", str(ROOT / "src"), "--workload", "windows-smallvocab"],
        capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    assert all(re.fullmatch(r"[0-9a-f]{64}  \S.*", line) for line in lines)
    names = [line.split("  ", 1)[1] for line in lines]
    stdouts = {n.split()[0][len("stdout:"):]: n.split()[1]
               for n in names if n.startswith("stdout:")}
    files = {n for n in names if not n.startswith("stdout:")}

    extra_ids = [f"extra_{k}" for k in hash_outputs.EXTRAS]
    tail = (["glove_initial"] + extra_ids + ["equiv_report", "pseudo_charword"]
            + list(hash_outputs.OTHER_TRAINERS)
            + list(hash_outputs.RCNN_READERS)
            + [cmd for t in hash_outputs.ANALOGY_TABLES
               for cmd in ([f"{task}_{t}" for task in ("analogy", "ws", "tfl")]
                           + [f"nn_{t}_{i}"
                              for i in range(hash_outputs.NN_QUERIES)])]
            + [f"{prefix}_segment_{step}" for prefix in hash_outputs.MIXED_RUNS
               for step in ("train", "decode", "score")])
    assert list(stdouts)[-len(tail):] == tail
    assert {"skipgram", "charword", "cbow", "glove", "rcnn"} <= set(stdouts)
    assert set(stdouts.values()) == {"exit=0"}
    cycle_files = {Path(p).name
                   for p in hash_outputs.workloads.output_paths("out").values()}
    assert files == (cycle_files | {"glove_initial.bin"}
                     | {f"{e}.bin" for e in extra_ids}
                     | {f"extra_{k}_model.bin" for k in hash_outputs.MODEL_OUT}
                     | {"wincnn.bin", "factorize_log.bin",
                        "factorize_conditional.bin", "segment_sgd.bin",
                        "segment_init.bin", "classify_init.bin",
                        "classify_predict.txt"}
                     | set(hash_outputs.MIXED_OUT)
                     | set(hash_outputs.PSEUDO_OUT))

"""Mutation check: does the test suite notice a fault in the code it covers?

Each mutation below replaces one exact piece of text in one file of
src/ndlite with a faulty version, in a copy of src/ made in a temporary
directory, and runs the tests it names against that copy (PYTHONPATH points
at the copy). A mutation is killed when those tests fail, and survives when
they pass. The script prints one line per mutation and the kill rate.

    python3 tests/mutation_check.py            # every mutation
    python3 tests/mutation_check.py fold       # the names containing "fold"

It exits 2 if a mutation's target text is not found exactly once in its file
(the source moved on: update the mutation), and 1 if a mutation survived.
pytest does not collect this file (its name does not start with test_), so
it is not part of the unit suite.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
MODEL = "tests/test_model.py"
LOWERING = "tests/test_lowering.py"
CLI = "tests/test_cli.py"
OPCOUNT = "tests/test_opcount.py"
NN = "tests/test_nn.py"
FOLD_TEST = f"{MODEL}::test_folded_float_route_matches_unfused_reference"
ORACLE = f"{MODEL}::test_exact_forward_matches_definition_oracle"
PROGRAM_TESTS = [f"{LOWERING}::test_program_matches_exact_{case}" for case in (
    "model_folded", "model_compare_fallback", "two_blocks_wider_group")]
PROOF = f"{CLI}::test_verify_proof_catches_mutation_without_trials"
COMPARE = f"{LOWERING}::test_compare_decision_takes_the_decision_threshold"
TABLE = f"{MODEL}::test_table_route_equals_gemm_route"
EDITS = [f"{MODEL}::test_exact_forward_follows_in_place_edits",
         f"{LOWERING}::test_run_program_sees_in_place_edits"]
BACKWARD = [f"{MODEL}::test_backward_matches_finite_differences"]
LOADER = [f"{LOWERING}::test_load_rejects_malformed",
          f"{LOWERING}::test_load_rejects_an_index_listed_twice",
          f"{LOWERING}::test_load_faults_keep_file_order",
          f"{CLI}::test_malformed_program_exits_2",
          f"{CLI}::test_malformed_index_list_exits_2"]

# (name, file under src/ndlite, target text, replacement, tests)
MUTATIONS = [
    # the float route's batchnorm fold
    ("fold: skip not scaled by the batchnorm scale", "model.py",
     "kmat, lam = kmat * scale, lam * scale",
     "kmat, lam = kmat * scale, lam", [FOLD_TEST]),
    ("fold: shift without the mean term", "nn.py",
     "return scale, bn.beta - bn.running_mean * scale",
     "return scale, bn.beta", [FOLD_TEST]),
    ("fold: res*.c1 writes its sums and activation over its skip source",
     "model.py", "y = nn.conv_sums(h, *k)",
     'y = nn.conv_sums(h, *k, out=h if spec.name.endswith(".c1") else None)',
     [FOLD_TEST]),
    # run_layers, the integer routes' one loop
    ("run_layers: skip bits not added", "model.py",
     "                s += planes[el.skip_from][at]\n",
     "                pass\n", [ORACLE]),
    ("run_layers: >= for >", "model.py",
     "fired = np.greater(s, el.t, out=h.view(bool))",
     "fired = np.greater_equal(s, el.t, out=h.view(bool))", [ORACLE]),
    ("run_layers: first ignored", "model.py",
     "                fired ^= el.first\n", "                pass\n",
     PROGRAM_TESTS + [TABLE]),
    ("run_layers: dense rows channels-first", "model.py",
     "x[...] = h.reshape(m, -1)",
     "x[...] = np.moveaxis(h, -1, 1).reshape(m, -1)", [ORACLE]),
    ("run_layers: S0 - S1", "model.py",
     "d[lo:lo + m] = s[:, 1] - s[:, 0]",
     "d[lo:lo + m] = s[:, 0] - s[:, 1]", [ORACLE]),
    # table_route, the integer routes' conv0 and first residual conv
    ("table route: tap-group key in radix 16", "model.py",
     "                keys *= PAD_SYMBOL + 1",
     "                keys *= PAD_SYMBOL", [TABLE, ORACLE]),
    ("table route: a group's taps keyed last tap first", "model.py",
     "            table = (table[:, None] + tap).reshape(-1, width)",
     "            table = (tap[:, None] + table).reshape(-1, width)",
     [TABLE, ORACLE]),
    ("table route: the padding symbol adds 1", "model.py",
     "    per_tap = np.zeros((len(taps), PAD_SYMBOL + 1, width), np.float32)",
     "    per_tap = np.ones((len(taps), PAD_SYMBOL + 1, width), np.float32)",
     [TABLE, ORACLE]),
    ("table route: conv0's table ignores first", "model.py",
     "    bits = (patterns @ layer0.kmat > layer0.t) ^ layer0.first",
     "    bits = patterns @ layer0.kmat > layer0.t", [TABLE, ORACLE]),
    ("table route: a program's tables kept over an edit", "model.py",
     "        kept = (fields, content_key(arrays), value)\n",
     "        old = kept\n"
     "        kept = (fields, content_key(arrays), value)\n"
     "        for new, was in zip(kept[2], old[2] if old and "
     "attr == '_compiled' else []):\n"
     "            new.bit_table, new.sum_tables = was.bit_table, "
     "was.sum_tables\n", EDITS),
    ("table route: a model's tables kept over an edit", "model.py",
     "        kept = (fields, content_key(arrays), value)\n",
     "        old = kept\n"
     "        kept = (fields, content_key(arrays), value)\n"
     "        for new, was in zip(kept[2], old[2] if old and "
     "attr == '_exact' else []):\n"
     "            new.bit_table, new.sum_tables = was.bit_table, "
     "was.sum_tables\n", EDITS),
    # sum_range
    ("sum_range: skip bit left out of hi", "model.py",
     "return lo.astype(np.int64), hi.astype(np.int64) + skip",
     "return lo.astype(np.int64), hi.astype(np.int64)",
     [f"{MODEL}::test_sum_range_is_the_reachable_range"]),
    ("sum_range: lo taken as 0", "model.py",
     "return lo.astype(np.int64), hi.astype(np.int64) + skip",
     "return 0 * lo.astype(np.int64), hi.astype(np.int64) + skip",
     [f"{MODEL}::test_sum_range_is_the_reachable_range"]),
    # _prove, the verifier's per-channel proof
    ("_prove: skip wiring not compared", "lowering.py",
     "        if cl.skip_from != el.skip_from:",
     "        if False:",
     [PROOF, f"{LOWERING}::test_verify_catches_dropped_skip"]),
    ("_prove: switch points not compared", "lowering.py",
     "                             | ((got_lo != got_hi) & (theta != t)))",
     "                             )", [PROOF]),
    ("_prove: antisymmetry of a folded output not checked", "lowering.py",
     "            if not np.array_equal(kmat[:, 0], -kmat[:, 1]):",
     "            if False:", [PROOF]),
    # lower_model's output decision
    ("lower_model: the compare decision takes the argmax rule",
     "lowering.py", '_compare_theta(out_t, out_b, "threshold", thr)',
     '_compare_theta(out_t, out_b, "argmax", thr)', [COMPARE]),
    ("lower_model: the fold is never tried", "lowering.py",
     "    folded = fold_output_pair(out_t, out_b, threshold=thr)",
     "    folded = None", [PROGRAM_TESTS[0]]),
    # _compile_layer, the thresholds run_program runs
    ("compile: thresholds clamped from lo + 1", "lowering.py",
     "min(max(th, lo_c - 1), hi_c)", "min(max(th, lo_c + 1), hi_c)",
     [f"{LOWERING}::test_verify_without_trials_proves_every_channel"]),
    # load_program
    ("loader: number count of an index list unchecked", "lowering.py",
     "            ok = len(values) == count", "            ok = True", LOADER),
    ("loader: an index listed twice not looked for", "lowering.py",
     "            fault = _first_listed_twice(layers[-1])",
     "            fault = None", LOADER),
    ("loader: a later line's fault reported first", "lowering.py",
     "            close_layer()  # a fault on an earlier line comes first",
     "            pass", LOADER),
    ("loader: channel count unchecked", "lowering.py",
     "        if declared != len(lp.channels):", "        if False:", LOADER),
    ("loader: a decision allowed on any layer", "lowering.py",
     "        if (lp.decision is not None) != (lp is prog.layers[-1]):",
     "        if False:", LOADER),
    ("loader: an unknown key accepted", "lowering.py",
     '            raise ValueError(f"{line} takes no {key}=")',
     "            pass", LOADER),
    ("loader: an IND line's theta= defaults to 0", "lowering.py",
     '_number(_need(kv, "theta"), "theta", signed=True)',
     '_number(kv.get("theta", "0"), "theta", signed=True)', LOADER),
    ("loader: an IND line's flip= defaults to 0", "lowering.py",
     '_bit(_need(kv, "flip"), "flip")', '_bit(kv.get("flip", "0"), "flip")',
     LOADER),
    # Model.backward
    ("backward: dense1's rows left channels-last", "model.py",
     "                    dw = nn.channels_first_rows(dw, c, hh, ww)\n",
     "                    pass\n", BACKWARD),
    ("backward: the sigmoid's gradient without 1 - y", "nn.py",
     "    return dy * cache * (1.0 - cache)", "    return dy * cache",
     BACKWARD),
    ("backward: the skip gradient dropped", "model.py",
     "skip_grads[spec.skip_from] = lam * dy",
     "skip_grads[spec.skip_from] = 0 * dy", BACKWARD),
    # the training kernels
    ("conv2d_grad: dw drops the remainder block", "nn.py",
     "        dwm += block.T @ rows[lo * h * wd:(lo + len(xb)) * h * wd]\n",
     "        if len(xb) == step:\n"
     "            dwm += block.T @ rows[lo * h * wd:(lo + len(xb)) * h * wd]"
     "\n", [f"{NN}::test_conv_gemm_blocks_agree"]),
    ("conv2d: the forward reuses the first block's windows", "nn.py",
     "matmul_rows(_im2col(xb, kh, kw, ph, pw, out=cols), kmat,",
     "matmul_rows(cols[:len(xb) * h * wd] if lo else "
     "_im2col(xb, kh, kw, ph, pw, out=cols), kmat,",
     [f"{NN}::test_conv_gemm_blocks_agree"]),
    ("batchnorm_grad: dx without the dbeta/m term", "nn.py",
     "    dx -= dbeta / m\n", "    pass\n",
     [f"{NN}::test_batchnorm_matches_float64_reference"]),
    # opcount, the dense and lightweight operation counts
    ("opcount: a sum drops the last column", "opcount.py",
     "OpCounts(*map(operator.add, self, other))",
     "OpCounts(*list(map(operator.add, self, other))[:-1])",
     [f"{OPCOUNT}::test_fixture_program_totals_and_ratio"]),
    ("opcount: a dense layer bills one add per weight", "opcount.py",
     "adds=(wc - spec.out_width) * d", "adds=wc * d",
     [f"{OPCOUNT}::test_dense_layer_published_examples"]),
    # resolve, the CLI's flag > config file > default
    ("sizes: a size of 0 accepted", "cli.py",
     "    if not sizes or min(sizes) < 1:",
     "    if not sizes or min(sizes) < 0:",
     [f"{CLI}::test_bad_dense_sizes_exit_2_naming_the_option"]),
    ("resolve: config value beats the flag", "cli.py",
     "        if flag is not None:\n",
     "        if flag is not None and key not in config:\n",
     [f"{CLI}::test_every_option_as_flag_or_config_line"]),
    ("resolve: a config key no command takes ignored", "cli.py",
     "        if not any(key in options for *_, options in COMMANDS.values()):",
     "        if False:",
     [f"{CLI}::test_config_key_no_command_takes_exits_2"]),
]


def run_tests(src, tests, cwd):
    """True when the tests pass against the package copy under src."""
    env = dict(os.environ, PYTHONPATH=str(src))
    cmd = [sys.executable, "-m", "pytest", "-q", "-x", "-p",
           "no:cacheprovider", "--rootdir", str(ROOT),
           *[str(ROOT / t) for t in tests]]
    done = subprocess.run(cmd, cwd=cwd, env=env, stdout=subprocess.DEVNULL,
                          stderr=subprocess.DEVNULL)
    return done.returncode == 0


def main(argv):
    chosen = [m for m in MUTATIONS if not argv or any(a in m[0] for a in argv)]
    with tempfile.TemporaryDirectory() as tmp:
        src = Path(tmp) / "src"
        shutil.copytree(ROOT / "src", src,
                        ignore=shutil.ignore_patterns("__pycache__"))
        for _, rel, target, _, _ in chosen:
            if (src / "ndlite" / rel).read_text().count(target) != 1:
                print(f"target text not found once in {rel}: {target!r}")
                return 2
        if not all(run_tests(src, tests, tmp) for *_, tests in chosen):
            print("the named tests fail on the unmutated source")
            return 2
        killed = 0
        for name, rel, target, replacement, tests in chosen:
            path = src / "ndlite" / rel
            original = path.read_text()
            path.write_text(original.replace(target, replacement))
            try:
                survived = run_tests(src, tests, tmp)
            finally:
                path.write_text(original)
            killed += not survived
            print(f"{'SURVIVED' if survived else 'killed  '}  {name}")
        print(f"kill rate: {killed}/{len(chosen)}")
        return 0 if killed == len(chosen) else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

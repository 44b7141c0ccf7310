"""The benchmark's layer wraps still see the code that runs.

perfbench/tracer.py times a layer by replacing a function at the name its
caller looks it up under (``sega.cli.read_latent``, ...). A refactor that
stops calling through such a name leaves that layer's metrics at 0 and fails
nothing, so this runs every command once on tiny inputs under the tracer and
checks which wraps record a call.
"""

import importlib.util
import json
from pathlib import Path

import numpy as np
from click.testing import CliRunner

from sega import LatentGrid, write_latent
from sega.cli import main

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"

# The wraps of functions that no longer exist (ROADMAP item 2).
DEAD = {
    "sega.attention.axial_rotary", "sega.harness.attend_rotary", "sega.cli.attend_rotary",
    "sega.attention.attend", "sega.harness.attention_entropy", "sega.cli.attention_entropy",
    "sega.cli.csv_line", "sega.fmtio.csv_line", "sega.cli.entropy_trace",
}


def test_every_live_wrap_records_a_call(tmp_path):
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    tracer_module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer_module)
    # Each binding gets its own span name on this private copy of the module,
    # so a dead sega.cli.token_features cannot hide behind sega.harness's.
    tracer_module.TARGETS = tuple(
        (f"{module}.{attr}", module, attr, counter) for _, module, attr, counter in tracer_module.TARGETS
    )
    live = {name for name, *_ in tracer_module.TARGETS} - DEAD
    assert len(live) == 14

    latent, config = str(tmp_path / "latent.segl"), tmp_path / "config.json"
    write_latent(LatentGrid(np.random.default_rng(0).standard_normal((8, 8, 4))), latent)
    config.write_text(json.dumps({"rope": {"dim": 8}, "trajectory": {"steps": 2, "height": 8, "width": 8}}))
    config = str(config)
    commands = [
        ["rope-table", "--dim", "8"],
        ["modulate", "--latent", latent, "--config", config],
        ["spectrum", "--latent", latent],
        ["attn-map", "--latent", latent, "--config", config, "--query-h", "3", "--query-w", "4"],
        ["entropy", "--latent", latent, "--config", config, "--scaling", "sega"],
        ["trajectory", "--config", config, "--out-dir", str(tmp_path / "trajectory")],
        ["heatmap", "--config", config, "--out-dir", str(tmp_path / "heatmap")],
    ]
    tracer = tracer_module.Tracer()
    tracer.install()
    try:
        for args in commands:
            res = CliRunner().invoke(main, args)
            assert res.exit_code == 0, (args, res.output)
    finally:
        tracer.uninstall()

    assert sorted(tracer.missing) == sorted(DEAD)
    assert live - {name for name, *_ in tracer.spans} == set()

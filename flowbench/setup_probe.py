"""Time one set-up in a fresh interpreter: import flowspec, parse the config, build the model.

    python3 setup_probe.py SRC_DIR CONFIG_JSON

Prints the seconds from before the import to after the model is built.
Interpreter start-up is not included.
"""

import sys
import time

t0 = time.perf_counter()
sys.path.insert(0, sys.argv[1])

import json  # noqa: E402

from flowspec import RunConfig, build_model  # noqa: E402

config = RunConfig.from_dict(json.loads(sys.argv[2]))
build_model(config.model_name, config.model_params)
print(repr(time.perf_counter() - t0))

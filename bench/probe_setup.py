"""One set-up sample in a fresh interpreter: import the package, parse and
validate the workload's config, and fill the module-level lazy caches
(Legendre panels) with one small synthesis.  Prints the seconds taken as
JSON.  Started by ``run.py``: ``python3 bench/probe_setup.py [CONFIG]``.
"""

import json
import sys
import time
from pathlib import Path


def main() -> None:
    start = time.perf_counter()
    sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))
    import reflectmimo
    import reflectmimo.cli  # noqa: F401  (the CLI is what users start)

    if len(sys.argv) > 1:
        reflectmimo.load_config(sys.argv[1])
    medium = reflectmimo.Medium(57.5e9, reflectmimo.VACUUM)
    scene = reflectmimo.SceneConfig(medium=medium, surface_z=1.0, source_z=0.0,
                                    receiver_z=0.5)
    component = reflectmimo.FieldComponent.LOS_ONLY
    spec = reflectmimo.estimate_nodes(
        scene, 0.0, reflectmimo.oscillation_span(scene, component),
    )
    reflectmimo.synthesize_impulse(scene, component, reflectmimo.SpatialLag(x=0.0), spec)
    print(json.dumps({"setup_s": time.perf_counter() - start}))


if __name__ == "__main__":
    main()

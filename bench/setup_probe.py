"""Set-up time of one workload in a fresh process.

Usage: python3 bench/setup_probe.py <repository root> <config file>

Times importing nskwave, parsing the config and building its waves with
build_pattern and build_composite, and prints the seconds as JSON.
"""
import json
import sys
import time

if __name__ == "__main__":
    root, config_path = sys.argv[1:3]
    sys.path.insert(0, f"{root}/src")
    start = time.perf_counter()
    import nskwave
    config = nskwave.parse_config(config_path)
    nskwave.build_composite(config.build_pattern(), config.gas)
    print(json.dumps({"setup_s": time.perf_counter() - start}))

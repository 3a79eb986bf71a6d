import sys
from pathlib import Path

_ROOT = Path(__file__).resolve().parents[2]
for path in (_ROOT / "src", _ROOT / "benchmarks"):
    if str(path) not in sys.path:
        sys.path.insert(0, str(path))

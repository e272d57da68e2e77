"""The workflow and `tools/ci_steps.py` name the same steps."""

import importlib.util
import re
from pathlib import Path

ROOT = Path(__file__).parent.parent
WORKFLOW = ROOT / ".github" / "workflows" / "tests.yml"


def test_the_workflow_calls_every_step_and_only_steps():
    spec = importlib.util.spec_from_file_location("ci_steps", ROOT / "tools" / "ci_steps.py")
    ci = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(ci)
    # read with a regex, since PyYAML is not a test dependency; a comment is no call
    calls = re.findall(r"^\s*(?:run: +)?python tools/ci_steps\.py +(.+)$", WORKFLOW.read_text(), re.MULTILINE)
    called = [step for call in calls for step in call.split()]
    assert set(called) <= set(ci.STEPS), "the workflow names an unknown step"
    assert set(ci.STEPS) <= set(called), "the workflow leaves a step out"
    assert set(ci.ALL) <= set(ci.STEPS), "`all` names an unknown step"

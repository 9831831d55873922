"""The line audit's line rule and recorder, on a toy module: Tier-1 keeps
the tool working without running the audit itself."""

import line_audit

TOY = '''\
def branch(x):
    if x:
        return "taken"
    return "not taken"


class Box:
    size = 3

    def get(self):
        return [self.size for _ in range(2)]
'''


def test_the_audit_counts_body_lines_and_reports_an_untaken_branch(tmp_path):
    path = tmp_path / "toy.py"
    path.write_text(TOY)
    # neither a def line nor a class body's line; a comprehension's line is its function's
    owners = line_audit.body_lines(path)
    assert owners == {2: "branch", 3: "branch", 4: "branch", 11: "Box.get"}
    namespace = {}
    with line_audit.Recorder([path]) as recorder:
        exec(compile(TOY, str(path), "exec"), namespace)
        namespace["branch"](True)
        namespace["Box"]().get()
    assert {name for name, _ in recorder.lines} == {str(path)}
    assert owners.keys() - {line for _, line in recorder.lines} == {4}

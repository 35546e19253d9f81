import json

from artifact_diff import compare_dirs, main


def write(directory, files: dict) -> None:
    directory.mkdir()
    for name, content in files.items():
        (directory / name).write_text(content)


def test_each_file_gets_one_line(tmp_path, capsys):
    old, new = tmp_path / "old", tmp_path / "new"
    record = {"graph_id": 0, "importance": [0.25, 0.75], "selected": [1, 2]}
    report = {"metrics": {"A1": {"mean": 0.5, "values": [0.5, 0.5]}}}
    write(old, {
        "same.json": '{"a": 1}',
        "checkpoint.json": json.dumps({"w": [[1.0, -2.0], [4.0, 0.0]], "name": "x"}),
        "explanations.jsonl": json.dumps(record) + "\n",
        "history.csv": "epoch,loss\n0,0.5\n1,0.25\n",
        "report.json": json.dumps(report),
        "run.log": "old\n",
        "gone.txt": "",
    })
    moved = dict(record, importance=[0.5, 0.75], selected=[2, 3])
    write(new, {
        "same.json": '{"a": 1}',
        "checkpoint.json": json.dumps({"w": [[1.0, -2.5], [4.0, 0.0]], "name": "x"}),
        "explanations.jsonl": json.dumps(moved) + "\n",
        "history.csv": "epoch,loss\n0,0.5\n1,0.3\n",
        "report.json": json.dumps({"metrics": {"A1": {"mean": 0.5, "values": [0.5, 0.6]}}}),
        "run.log": "new\n",
        "added.txt": "",
    })
    lines = compare_dirs(old, new)
    assert lines == [
        "added.txt: only in NEW",
        "checkpoint.json: max abs deviation 0.5, max rel deviation 0.2",
        "explanations.jsonl: max abs deviation 1, max rel deviation 0.5; "
        "selected sets DIFFER (1 old, 1 new)",
        "gone.txt: only in OLD",
        "history.csv: max abs deviation 0.05, max rel deviation 0.167",
        "report.json: max abs deviation 0.1, max rel deviation 0.167; report values DIFFER",
        "run.log: differs",
        "same.json: byte-identical",
    ]
    (new / "explanations.jsonl").write_text(json.dumps(dict(moved, selected=[2, 1])) + "\n")
    (new / "report.json").write_text(json.dumps({"metrics": {"A1": {"mean": 0.5}}}))
    assert main([str(old), str(new)]) == 0
    out = capsys.readouterr().out.splitlines()
    assert "selected sets all equal (1 old, 1 new)" in out[2]
    assert out[5] == "report.json: structure differs; report values DIFFER"


def test_usage(tmp_path, capsys):
    assert main([str(tmp_path)]) == 2
    assert "OLD_DIR NEW_DIR" in capsys.readouterr().err

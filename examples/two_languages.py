"""Two user languages, one database: the multi-lingual story live.

A DAPLEX user and a CODASYL-DML user work on the *same* functional
University database through their own language interfaces (thesis
Figure 1.2).  Updates made through either language are immediately
visible through the other, because both translations target the same
AB(functional) records in the shared multi-backend kernel.

Run:  python examples/two_languages.py
"""

from repro import MLDS
from repro.kfs import format_table
from repro.university import generate_university, load_university


def main() -> None:
    mlds = MLDS(backend_count=4)
    load_university(mlds, generate_university(persons=30, courses=10, seed=42))

    daplex = mlds.open_daplex_session("university", user="shipman_fan")
    codasyl = mlds.open_codasyl_session("university", user="dbtg_fan")

    print("-- DAPLEX user: survey the honor students")
    result = daplex.execute(
        "FOR EACH s IN student SUCH THAT gpa(s) >= 3.5 "
        "PRINT name(s), gpa(s), dname(dept(advisor(s)));"
    )
    print(format_table(["name(s)", "gpa(s)", "dname(dept(advisor(s)))"], result.rows))

    print("\n-- DAPLEX user: a new person joins")
    daplex.execute(
        "FOR A NEW p IN person BEGIN LET name(p) = 'Edgar Codd'; LET age(p) = 44; END;"
    )
    daplex.execute(
        "FOR A NEW s IN student OF person SUCH THAT name(person) = 'Edgar Codd' "
        "BEGIN LET major(s) = 'relations'; LET gpa(s) = 4.0; END;"
    )
    print("created and extended 'Edgar Codd' through DAPLEX")

    print("\n-- CODASYL-DML user: finds the same entity through FIND ANY")
    codasyl.execute("MOVE 'Edgar Codd' TO name IN person")
    person = codasyl.execute("FIND ANY person USING name IN person")
    student = codasyl.execute("FIND FIRST student WITHIN person_student")
    print(f"person {person.dbkey} / student values: "
          f"{codasyl.execute('GET student').values}")

    print("\n-- CODASYL-DML user: connects the student to an advisor")
    codasyl.execute("MOVE 'professor' TO rank IN faculty")
    faculty = codasyl.execute("FIND ANY faculty USING rank IN faculty")
    if not faculty.ok:
        codasyl.execute("MOVE 'associate' TO rank IN faculty")
        faculty = codasyl.execute("FIND ANY faculty USING rank IN faculty")
    codasyl.execute("FIND CURRENT student WITHIN person_student")
    codasyl.execute("CONNECT student TO advisor")
    print(f"CONNECTed student to faculty {faculty.dbkey}")

    print("\n-- DAPLEX user: observes the CODASYL-made relationship")
    result = daplex.execute(
        "FOR EACH s IN student SUCH THAT name(s) = 'Edgar Codd' "
        "PRINT advisor(s), dname(dept(advisor(s)));"
    )
    print(format_table(["advisor(s)", "dname(dept(advisor(s)))"], result.rows))

    print("\n-- DAPLEX user: raises every low GPA by decree")
    touched = daplex.execute(
        "FOR EACH s IN student SUCH THAT gpa(s) < 2.2 BEGIN LET gpa(s) = 2.2; END;"
    ).touched
    print(f"updated {touched} students")

    print("\n-- CODASYL-DML user: verifies no student remains below 2.2")
    # (through the kernel's aggregate path)
    from repro.abdl import parse_request

    trace = mlds.kds.execute(parse_request("RETRIEVE (FILE = student) (MIN(gpa))"))
    print(f"MIN(gpa) = {trace.result.records[0].get('MIN(gpa)')}")

    print(f"\nDAPLEX session issued {daplex.kc.mark()} ABDL requests; "
          f"CODASYL session issued {codasyl.kc.mark()}")


if __name__ == "__main__":
    main()

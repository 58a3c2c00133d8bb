"""Updating a functional database through CODASYL-DML (Chapter VI.D-H).

A full update lifecycle against the AB(functional) University database:
STORE a person and extend them into a student (the ISA sets connect
automatically), CONNECT them to an advisor and to courses, MODIFY their
record, then DISCONNECT and ERASE — with the constraint machinery on
display: duplicate suppression, overlap checking, the CODASYL and DAPLEX
erase rules, and the rejected ERASE ALL.

Run:  python examples/cross_model_update.py
"""

from repro import MLDS, ConstraintViolation, UnsupportedStatement
from repro.university import generate_university, load_university


def step(title: str) -> None:
    print(f"\n--- {title}")


def main() -> None:
    mlds = MLDS(backend_count=4)
    data = generate_university(persons=30, courses=10, seed=99)
    load_university(mlds, data)
    s = mlds.open_codasyl_session("university", user="updater")

    step("STORE person (a fresh entity; the kernel mints its database key)")
    s.execute("MOVE 'Grace Hopper' TO name IN person")
    s.execute("MOVE 37 TO age IN person")
    person = s.execute("STORE person")
    print(f"stored person {person.dbkey}")
    for request in person.requests:
        print(f"    ABDL> {request}")

    step("STORE student (subtype: reuses the person's key via person_student)")
    s.execute("MOVE 'computing' TO major IN student")
    s.execute("MOVE 4.0 TO gpa IN student")
    student = s.execute("STORE student")
    print(f"stored student {student.dbkey} (same entity: {student.dbkey == person.dbkey})")

    step("duplicate STOREs are rejected (UNIQUE name WITHIN person)")
    s.execute("MOVE 'Grace Hopper' TO name IN person")
    s.execute("MOVE 99 TO age IN person")
    try:
        s.execute("STORE person")
    except ConstraintViolation as exc:
        print(f"rejected: {exc}")

    step("CONNECT student TO advisor (member-side UPDATE)")
    s.execute("MOVE 'professor' TO rank IN faculty")
    faculty = s.execute("FIND ANY faculty USING rank IN faculty")
    s.execute("FIND CURRENT student WITHIN person_student")
    connect = s.execute("CONNECT student TO advisor")
    for request in connect.requests:
        print(f"    ABDL> {request}")

    step("CONNECT course TO enrollment twice (owner-side cases 1 and 3)")
    for index in (0, 1):
        title = data.courses[index].title
        s.execute(f"MOVE '{title}' TO title IN course")
        s.execute("FIND ANY course USING title IN course")
        s.execute("FIND CURRENT student WITHIN person_student")
        s.execute("FIND CURRENT course WITHIN system_course")
        result = s.execute("CONNECT course TO enrollment")
        for request in result.requests:
            if request.startswith(("UPDATE", "INSERT")):
                print(f"    ABDL> {request}")

    step("MODIFY gpa IN student (one UPDATE per modified item)")
    s.execute("FIND CURRENT student WITHIN person_student")
    s.execute("MOVE 3.6 TO gpa IN student")
    modify = s.execute("MODIFY gpa IN student")
    for request in modify.requests:
        print(f"    ABDL> {request}")

    step("ERASE person is blocked while the student extension exists")
    s.execute("MOVE 'Grace Hopper' TO name IN person")
    s.execute("FIND ANY person USING name IN person")
    try:
        s.execute("ERASE person")
    except ConstraintViolation as exc:
        print(f"rejected (CODASYL rule): {exc}")

    step("ERASE ALL is parsed but not translated (VI.H.2)")
    try:
        s.execute("ERASE ALL person")
    except UnsupportedStatement as exc:
        print(f"rejected: {exc}")

    step("ERASE student is blocked while it owns enrollment members")
    s.execute("FIND FIRST student WITHIN person_student")
    try:
        s.execute("ERASE student")
    except ConstraintViolation as exc:
        print(f"rejected: {exc}")

    step("DISCONNECT both courses, then the two-phase erase succeeds")
    for index in (0, 1):
        title = data.courses[index].title
        s.execute(f"MOVE '{title}' TO title IN course")
        s.execute("FIND ANY course USING title IN course")
        s.execute("FIND CURRENT student WITHIN person_student")
        s.execute("FIND CURRENT course WITHIN system_course")
        s.execute("DISCONNECT course FROM enrollment")
    s.execute("FIND CURRENT student WITHIN person_student")
    s.execute("DISCONNECT student FROM advisor")
    print(f"ERASE student -> {s.execute('ERASE student').status.value}")
    s.execute("MOVE 'Grace Hopper' TO name IN person")
    s.execute("FIND ANY person USING name IN person")
    print(f"ERASE person  -> {s.execute('ERASE person').status.value}")
    print(f"\nsession issued {s.kc.mark()} ABDL requests in total")


if __name__ == "__main__":
    main()

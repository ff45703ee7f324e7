// The Database-Derby-style workload: the one collection schema that "came
// with a query set" — 20 queries, 8 of which are updates (§6.2).
#include "er/er_catalog.h"
#include "workload/workload.h"

namespace mctdb::workload {

using query::QueryBuilder;

Workload DerbyWorkload() {
  Workload w(er::Derby());
  const er::ErDiagram& d = w.diagram;
  w.gen.base_count = 40;
  w.gen.fanout = 3.0;
  w.gen.seed = 8585;

  // D1: students of one college (deep chain through enrollment).
  {
    QueryBuilder b("D1", d);
    int c = b.Root("college");
    b.Where(c, "name", "Japan");
    b.Via(c, {"comprises", "department", "dept_course", "course",
              "course_section", "section", "sec_enroll", "enrollment"});
    w.queries.push_back(b.Build());
  }
  // D2: sections taught by professors of one department.
  {
    QueryBuilder b("D2", d);
    int dep = b.Root("department");
    b.Where(dep, "name", "USA");
    b.Via(dep, {"dept_faculty", "professor", "section_prof", "section"});
    w.queries.push_back(b.Build());
  }
  // D3: the room of a given section (reverse context).
  {
    QueryBuilder b("D3", d);
    int s = b.Root("section");
    b.Where(s, "id", "section_9");
    b.Via(s, {"meets_in", "room"});
    w.queries.push_back(b.Build());
  }
  // D4: the building of a given section (two reverse hops).
  {
    QueryBuilder b("D4", d);
    int s = b.Root("section");
    b.Where(s, "id", "section_12");
    b.Via(s, {"meets_in", "room", "in_building", "building"});
    w.queries.push_back(b.Build());
  }
  // D5: distinct rooms pinned by one course (M:N).
  {
    QueryBuilder b("D5", d);
    int c = b.Root("course");
    b.Where(c, "id", "course_4");
    b.Via(c, {"prereq_site", "room"});
    b.Distinct();
    w.queries.push_back(b.Build());
  }
  // D6: enrollments of one student.
  {
    QueryBuilder b("D6", d);
    int s = b.Root("student");
    b.Where(s, "id", "student_15");
    b.Via(s, {"stu_enroll", "enrollment"});
    w.queries.push_back(b.Build());
  }
  // D7: advisees of professors in one department, grouped by GPA.
  {
    QueryBuilder b("D7", d);
    int dep = b.Root("department");
    b.Where(dep, "name", "Kenya");
    b.Via(dep, {"dept_faculty", "professor", "advises", "student"});
    b.GroupBy("gpa");
    w.queries.push_back(b.Build());
  }
  // D8: notes about students advised by one professor.
  {
    QueryBuilder b("D8", d);
    int p = b.Root("professor");
    b.Where(p, "id", "professor_2");
    b.Via(p, {"advises", "student", "note_about", "advisor_note"});
    w.queries.push_back(b.Build());
  }
  // D9: head professor of a department (1:1 both ways).
  {
    QueryBuilder b("D9", d);
    int dep = b.Root("department");
    b.Where(dep, "id", "department_3");
    b.Via(dep, {"dept_head", "professor"});
    w.queries.push_back(b.Build());
  }
  // D10: tuple pattern — sections of one course that meet in a given
  // timeslot (filter branch + output branch).
  {
    QueryBuilder b("D10", d);
    int c = b.Root("course");
    b.Where(c, "id", "course_6");
    int s = b.Via(c, {"course_section", "section"});
    int t = b.Via(s, {"meets_at", "timeslot"});
    b.Where(t, "when", "Japan");
    int e = b.Via(s, {"sec_enroll", "enrollment"});
    b.Output(e);
    w.queries.push_back(b.Build());
  }
  // D11: distinct students enrolled in sections of one course (M:N
  // composite through enrollment).
  {
    QueryBuilder b("D11", d);
    int c = b.Root("course");
    b.Where(c, "id", "course_2");
    b.Via(c, {"course_section", "section", "sec_enroll", "enrollment",
              "stu_enroll", "student"});
    b.Distinct();
    w.queries.push_back(b.Build());
  }
  // D12: students of one college grouped by name (group-by by value).
  {
    QueryBuilder b("D12", d);
    int c = b.Root("college");
    b.Where(c, "name", "India");
    b.Via(c, {"stu_college", "student"});
    b.GroupBy("name");
    w.queries.push_back(b.Build());
  }

  // DU1: rename one student (point, located by key).
  {
    QueryBuilder b("DU1", d);
    int s = b.Root("student");
    b.Where(s, "id", "student_1");
    b.Update("name", "renamed");
    w.queries.push_back(b.Build());
  }
  // DU2: bulk GPA reset for students named Japan.
  {
    QueryBuilder b("DU2", d);
    int s = b.Root("student");
    b.Where(s, "name", "Japan");
    b.Update("gpa", "0");
    w.queries.push_back(b.Build());
  }
  // DU3: regrade the enrollments of one section (chain-located).
  {
    QueryBuilder b("DU3", d);
    int s = b.Root("section");
    b.Where(s, "id", "section_5");
    b.Via(s, {"sec_enroll", "enrollment"});
    b.Update("grade", "A");
    w.queries.push_back(b.Build());
  }
  // DU4: renumber the room of one section (reverse-located single update).
  {
    QueryBuilder b("DU4", d);
    int s = b.Root("section");
    b.Where(s, "id", "section_7");
    b.Via(s, {"meets_in", "room"});
    b.Update("number", "B-101");
    w.queries.push_back(b.Build());
  }
  // DU5: re-term sections of one course.
  {
    QueryBuilder b("DU5", d);
    int c = b.Root("course");
    b.Where(c, "id", "course_3");
    b.Via(c, {"course_section", "section"});
    b.Update("term", "W26");
    w.queries.push_back(b.Build());
  }
  // DU6: retitle courses of one department.
  {
    QueryBuilder b("DU6", d);
    int dep = b.Root("department");
    b.Where(dep, "id", "department_1");
    b.Via(dep, {"dept_course", "course"});
    b.Update("title", "retitled");
    w.queries.push_back(b.Build());
  }
  // DU7: update the advisor notes of one professor's advisees.
  {
    QueryBuilder b("DU7", d);
    int p = b.Root("professor");
    b.Where(p, "id", "professor_5");
    b.Via(p, {"advises", "student", "note_about", "advisor_note"});
    b.Update("text", "reviewed");
    w.queries.push_back(b.Build());
  }
  // DU8: rename the building a section meets in (two reverse hops).
  {
    QueryBuilder b("DU8", d);
    int s = b.Root("section");
    b.Where(s, "id", "section_3");
    b.Via(s, {"meets_in", "room", "in_building", "building"});
    b.Update("name", "annex");
    w.queries.push_back(b.Build());
  }

  for (const auto& q : w.queries) w.figure_queries.push_back(q.name);
  return w;
}

}  // namespace mctdb::workload

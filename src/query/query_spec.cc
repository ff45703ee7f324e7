#include "query/query_spec.h"

#include "common/logging.h"

namespace mctdb::query {

int QueryBuilder::Root(std::string_view type_name) {
  auto node = diagram_->FindNode(type_name);
  MCTDB_CHECK_MSG(node.has_value(), std::string(type_name).c_str());
  PatternNode pn;
  pn.er_node = *node;
  pn.parent = -1;
  query_.nodes.push_back(pn);
  query_.output = static_cast<int>(query_.nodes.size()) - 1;
  return query_.output;
}

int QueryBuilder::Via(int parent, const std::vector<std::string>& path_names) {
  MCTDB_CHECK(parent >= 0 &&
              parent < static_cast<int>(query_.nodes.size()));
  PatternNode pn;
  pn.parent = parent;
  pn.path_from_parent.push_back(query_.nodes[parent].er_node);
  for (const std::string& name : path_names) {
    auto node = diagram_->FindNode(name);
    MCTDB_CHECK_MSG(node.has_value(), name.c_str());
    pn.path_from_parent.push_back(*node);
  }
  MCTDB_CHECK(pn.path_from_parent.size() >= 2);
  pn.er_node = pn.path_from_parent.back();
  query_.nodes.push_back(pn);
  query_.output = static_cast<int>(query_.nodes.size()) - 1;
  return query_.output;
}

QueryBuilder& QueryBuilder::Where(int node, std::string_view attr,
                                  std::string_view value) {
  query_.nodes[node].predicate =
      AttrPredicate{std::string(attr), std::string(value)};
  return *this;
}

QueryBuilder& QueryBuilder::Output(int node) {
  query_.output = node;
  return *this;
}

QueryBuilder& QueryBuilder::Distinct() {
  query_.distinct = true;
  return *this;
}

QueryBuilder& QueryBuilder::GroupBy(std::string_view attr) {
  query_.group_by = GroupBySpec{std::string(attr)};
  return *this;
}

QueryBuilder& QueryBuilder::Update(std::string_view attr,
                                   std::string_view value) {
  query_.update = UpdateSpec{std::string(attr), std::string(value)};
  return *this;
}

std::string CanonicalQueryText(const AssociationQuery& query) {
  std::string out;
  out.reserve(128);
  // Strings are length-prefixed so no attribute value can fake a
  // structural delimiter and collide two distinct queries onto one key.
  auto str = [&](const std::string& s) {
    out += std::to_string(s.size());
    out += ':';
    out += s;
  };
  out += "q{";
  str(query.name);
  out += ";n=";
  out += std::to_string(query.nodes.size());
  for (const PatternNode& n : query.nodes) {
    out += ";[t=";
    out += std::to_string(n.er_node);
    out += ",p=";
    out += std::to_string(n.parent);
    out += ",path=";
    for (er::NodeId id : n.path_from_parent) {
      out += std::to_string(id);
      out += '.';
    }
    if (n.predicate.has_value()) {
      out += ",pred=";
      str(n.predicate->attr);
      out += '=';
      str(n.predicate->value);
    }
    out += ']';
  }
  out += ";out=";
  out += std::to_string(query.output);
  if (query.distinct) out += ";distinct";
  if (query.group_by.has_value()) {
    out += ";group=";
    str(query.group_by->attr);
  }
  if (query.update.has_value()) {
    out += ";update=";
    str(query.update->attr);
    out += "<-";
    str(query.update->new_value);
  }
  out += '}';
  return out;
}

}  // namespace mctdb::query

#include <cmath>

#include "er/er_catalog.h"
#include "workload/workload.h"

namespace mctdb::workload {

using query::QueryBuilder;

Workload TpcwWorkload(double scale) {
  Workload w(er::Tpcw());
  const er::ErDiagram& d = w.diagram;

  auto scaled = [&](double base) {
    return static_cast<size_t>(std::max(4.0, base * scale));
  };
  w.gen.seed = 4242;
  w.gen.zipf_theta = 0.4;
  w.gen.explicit_counts = {
      {"country", 30},
      {"address", scaled(1500)},
      {"customer", scaled(1000)},
      {"order", scaled(1400)},
      {"order_line", scaled(4200)},
      {"item", scaled(1000)},
      {"author", scaled(250)},
      {"credit_card_transaction", scaled(1400)},
  };

  // Q1: orders placed by customers having addresses in Japan —
  // /country[@name='Japan']//order through the customer chain (§1).
  {
    QueryBuilder b("Q1", d);
    int country = b.Root("country");
    b.Where(country, "name", "Japan");
    b.Via(country, {"in", "address", "has", "customer", "make", "order"});
    w.queries.push_back(b.Build());
  }
  // Q2: orders with billing addresses in Japan (§1).
  {
    QueryBuilder b("Q2", d);
    int country = b.Root("country");
    b.Where(country, "name", "Japan");
    b.Via(country, {"in", "address", "billing", "order"});
    w.queries.push_back(b.Build());
  }
  // Q3-Q5, Q13: schema-indifferent single-type lookups (the paper's "4 of
  // these 16 queries were indifferent to choice of schema").
  {
    QueryBuilder b("Q3", d);
    int c = b.Root("customer");
    b.Where(c, "id", "customer_7");
    w.queries.push_back(b.Build());
  }
  {
    QueryBuilder b("Q4", d);
    int i = b.Root("item");
    b.Where(i, "subject", "Korea");
    w.queries.push_back(b.Build());
  }
  {
    QueryBuilder b("Q5", d);
    int a = b.Root("author");
    b.Where(a, "lname", "Chile");
    w.queries.push_back(b.Build());
  }
  // Q6: distinct items ordered by one customer (M:N composite; DEEP
  // answers it with duplicates — the 315(9825) row).
  {
    QueryBuilder b("Q6", d);
    int c = b.Root("customer");
    b.Where(c, "id", "customer_5");
    b.Via(c, {"make", "order", "contain", "order_line", "occur_in", "item"});
    b.Distinct();
    w.queries.push_back(b.Build());
  }
  // Q7: order lines of orders made by customers with a given uname.
  {
    QueryBuilder b("Q7", d);
    int c = b.Root("customer");
    b.Where(c, "uname", "India");
    b.Via(c, {"make", "order", "contain", "order_line"});
    w.queries.push_back(b.Build());
  }
  // Q8: credit-card transactions of orders billed to addresses in a city
  // (two chained associations through billing).
  {
    QueryBuilder b("Q8", d);
    int a = b.Root("address");
    b.Where(a, "city", "Kenya");
    int o = b.Via(a, {"billing", "order"});
    b.Via(o, {"associate", "credit_card_transaction"});
    w.queries.push_back(b.Build());
  }
  // Q9: distinct authors of the items in one order (upward M:N context).
  {
    QueryBuilder b("Q9", d);
    int o = b.Root("order");
    b.Where(o, "id", "order_7");
    b.Via(o, {"contain", "order_line", "occur_in", "item", "write",
              "author"});
    b.Distinct();
    w.queries.push_back(b.Build());
  }
  // Q10: the credit-card transaction of a customer's orders (1:1 hop).
  {
    QueryBuilder b("Q10", d);
    int c = b.Root("customer");
    b.Where(c, "id", "customer_11");
    b.Via(c, {"make", "order", "associate", "credit_card_transaction"});
    w.queries.push_back(b.Build());
  }
  // Q11: orders from Japan grouped by status.
  {
    QueryBuilder b("Q11", d);
    int country = b.Root("country");
    b.Where(country, "name", "Japan");
    b.Via(country, {"in", "address", "has", "customer", "make", "order"});
    b.GroupBy("status");
    w.queries.push_back(b.Build());
  }
  // Q12: the deepest chain, country down to order lines.
  {
    QueryBuilder b("Q12", d);
    int country = b.Root("country");
    b.Where(country, "name", "Japan");
    b.Via(country, {"in", "address", "has", "customer", "make", "order",
                    "contain", "order_line"});
    w.queries.push_back(b.Build());
  }
  // Q13: indifferent transaction scan.
  {
    QueryBuilder b("Q13", d);
    int t = b.Root("credit_card_transaction");
    b.Where(t, "cc_type", "Spain");
    w.queries.push_back(b.Build());
  }
  // U1: bulk price update of one subject's items (DEEP rewrites every copy
  // nested under order lines).
  {
    QueryBuilder b("U1", d);
    int i = b.Root("item");
    b.Where(i, "subject", "Japan");
    b.Update("cost", "999");
    w.queries.push_back(b.Build());
  }
  // U2: mark one customer's orders shipped.
  {
    QueryBuilder b("U2", d);
    int c = b.Root("customer");
    b.Where(c, "id", "customer_3");
    b.Via(c, {"make", "order"});
    b.Update("status", "shipped");
    w.queries.push_back(b.Build());
  }
  // U3: single-element update located through an association — fix the zip
  // of the billing address of one order.
  {
    QueryBuilder b("U3", d);
    int o = b.Root("order");
    b.Where(o, "id", "order_17");
    b.Via(o, {"billing", "address"});
    b.Update("zip", "00000");
    w.queries.push_back(b.Build());
  }

  w.figure_queries = {"Q1", "Q2", "Q6", "Q7", "Q8", "Q9",
                      "Q10", "Q11", "Q12", "U1", "U2", "U3"};
  return w;
}

}  // namespace mctdb::workload

#ifndef MEMAGG_HASH_WIDGET_H_
#define MEMAGG_HASH_WIDGET_H_
void f() { Node* n = new Node(); use(n); }
#endif  // MEMAGG_HASH_WIDGET_H_

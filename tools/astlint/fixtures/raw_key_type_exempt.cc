#ifndef MEMAGG_DATA_WIDGET_H_
#define MEMAGG_DATA_WIDGET_H_
uint64_t key = Pack(fields);
#endif  // MEMAGG_DATA_WIDGET_H_
